#include "core/trace_cache.h"

#include "core/simulator.h"
#include "util/failpoint.h"
#include "vm/interpreter.h"

namespace bioperf::core {

std::string
TraceKey::str() const
{
    std::string s = app ? app->name : "?";
    s += '/';
    s += apps::toString(variant);
    s += '/';
    s += apps::toString(scale);
    s += "/seed";
    s += std::to_string(seed);
    if (registerPressure) {
        s += "/regs";
        s += std::to_string(intRegs);
        s += '-';
        s += std::to_string(fpRegs);
    }
    return s;
}

apps::AppRun
makeWorkload(const TraceKey &key, uint32_t *spills)
{
    apps::AppRun run = key.app->make(key.variant, key.scale, key.seed);
    const uint32_t n =
        key.registerPressure
            ? Simulator::applyRegisterPressure(run, key.intRegs,
                                               key.fpRegs)
            : 0;
    if (spills)
        *spills = n;
    return run;
}

util::StatusOr<TraceCache::Ptr>
TraceCache::record(const TraceKey &key)
{
    if (BIOPERF_FAILPOINT("cache.record.fail"))
        return util::Status::unavailable(
            "fail point cache.record.fail fired");
    if (!key.app)
        return util::Status::invalidArgument(
            "trace key has no application");
    try {
        auto ct = std::make_shared<CachedTrace>();
        apps::AppRun run = makeWorkload(key, &ct->spills);
        vm::TraceRecorder recorder(*run.prog);
        vm::Interpreter interp(*run.prog);
        interp.addSink(&recorder);
        run.driver(interp);
        ct->verified = run.verify();
        ct->instructions = interp.totalInstrs();
        ct->trace = recorder.finish();
        ct->prog = std::move(run.prog);
        return Ptr(std::move(ct));
    } catch (const util::StatusError &e) {
        util::Status s = e.status();
        return s.withContext("recording " + key.str());
    } catch (const std::exception &e) {
        return util::Status::internal(e.what()).withContext(
            "recording " + key.str());
    }
}

} // namespace bioperf::core
