#include "core/trace_cache.h"

#include <chrono>

#include "core/simulator.h"
#include "util/failpoint.h"
#include "vm/interpreter.h"

namespace bioperf::core {

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

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

void
TraceCache::Stats::addStagesTo(util::RunManifest &manifest) const
{
    if (records > 0)
        manifest.addStage("trace_record", recordSeconds,
                          recordedInstructions);
    if (replayedInstructions > 0)
        manifest.addStage("trace_replay", replaySeconds,
                          replayedInstructions);
}

void
TraceCache::Stats::addFailuresTo(util::RunManifest &manifest) const
{
    for (const Incident &inc : incidents)
        manifest.addFailure(inc.key, "", inc.stage, inc.error);
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

util::StatusOr<TraceCache::Ptr>
TraceCache::obtain(const TraceKey &key)
{
    const std::string k = key.str();
    std::promise<util::StatusOr<Ptr>> promise;
    std::shared_future<util::StatusOr<Ptr>> fut;
    bool recording = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            stats_.hits++;
            fut = it->second;
        } else {
            // Single-flight: publish the future before recording so
            // concurrent workers for the same workload block on it
            // instead of recording twice.
            recording = true;
            fut = promise.get_future().share();
            entries_.emplace(k, fut);
        }
    }
    if (!recording)
        return fut.get();
    const double t0 = now();
    util::StatusOr<Ptr> got = record(key);
    if (!got.ok()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.recordRetries++;
        }
        got = record(key);
    }
    const double dt = now() - t0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (got.ok()) {
            stats_.records++;
            stats_.recordSeconds += dt;
            stats_.recordedInstructions += got.value()->instructions;
        } else {
            // Waiters blocked on the future still receive the
            // failure; dropping the entry lets a later obtain()
            // re-attempt instead of caching the error forever.
            stats_.recordFailures++;
            stats_.incidents.push_back(
                Incident{ "trace_record", k, got.status().str() });
            entries_.erase(k);
        }
    }
    promise.set_value(got);
    return got;
}

TraceCache::Ptr
TraceCache::lookup(const TraceKey &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key.str());
    if (it == entries_.end())
        return nullptr;
    if (it->second.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
        return nullptr;
    const util::StatusOr<Ptr> &got = it->second.get();
    return got.ok() ? got.value() : nullptr;
}

void
TraceCache::quarantine(const TraceKey &key, const util::Status &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.erase(key.str()) != 0) {
        stats_.quarantined++;
        stats_.incidents.push_back(
            Incident{ "trace_quarantine", key.str(), why.str() });
    }
}

void
TraceCache::noteLiveFallback(const TraceKey &key,
                             const util::Status &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.liveFallbacks++;
    stats_.incidents.push_back(
        Incident{ "live_fallback", key.str(), why.str() });
}

void
TraceCache::erase(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(key.str());
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

size_t
TraceCache::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[name, fut] : entries_) {
        if (fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            const util::StatusOr<Ptr> &got = fut.get();
            if (got.ok() && got.value())
                n += got.value()->trace.totalBytes();
        }
    }
    return n;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
TraceCache::noteReplay(double seconds, uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.replaySeconds += seconds;
    stats_.replayedInstructions += instructions;
}

} // namespace bioperf::core
