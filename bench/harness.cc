#include "harness.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace bioperf::bench {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Harness::Harness(const std::string &name, int argc, char **argv)
    : name_(name), path_("BENCH_" + name + ".json"),
      metrics_(util::json::Value::object())
{
    manifest_.bench = name;
    for (int i = 1; i + 1 < argc; i++) {
        if (std::strcmp(argv[i], "--json") == 0)
            path_ = argv[i + 1];
    }
}

int
Harness::finish(bool ok)
{
    util::json::Value report = util::json::Value::object();
    report["schema"] = "bioperf.bench.v1";
    report["bench"] = name_;
    report["ok"] = ok;
    report["manifest"] = manifest_.report();
    report["metrics"] = std::move(metrics_);
    metrics_ = util::json::Value::object();
    const bool wrote = util::json::writeFile(path_, report);
    if (wrote)
        std::printf("[report: %s]\n", path_.c_str());
    else
        std::printf("[report: FAILED writing %s]\n", path_.c_str());
    return ok && wrote ? 0 : 1;
}

} // namespace bioperf::bench
