#include "util/metrics.h"

namespace bioperf::util {

json::Value
RunManifest::report() const
{
    json::Value m = json::Value::object();
    m["bench"] = bench;
    m["app"] = app;
    m["variant"] = variant;
    m["scale"] = scale;
    m["seed"] = seed;
    m["platform"] = platform;
    m["threads"] = threads;
    m["trace_mode"] = traceMode;
    json::Value st = json::Value::array();
    for (const Stage &s : stages) {
        json::Value e = json::Value::object();
        e["name"] = s.name;
        e["wall_seconds"] = s.wallSeconds;
        e["instructions"] = s.instructions;
        e["simulated_mips"] = s.simulatedMips();
        st.push(std::move(e));
    }
    m["stages"] = std::move(st);
    json::Value fl = json::Value::array();
    for (const Failure &f : failures) {
        json::Value e = json::Value::object();
        e["app"] = f.app;
        e["variant"] = f.variant;
        e["stage"] = f.stage;
        e["error"] = f.error;
        fl.push(std::move(e));
    }
    m["failures"] = std::move(fl);
    return m;
}

} // namespace bioperf::util
