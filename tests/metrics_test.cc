/**
 * @file
 * Tests for the unified metrics layer: the util::json value tree and
 * file writer, the RunManifest protocol, the schema shape of the
 * result reports, exact equivalence between JSON-exported numbers and
 * the summary fields they come from, and the bench harness's file
 * emission.
 */
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "core/simulator.h"
#include "cpu/platforms.h"
#include "harness.h"
#include "util/json.h"
#include "util/metrics.h"

using namespace bioperf;
using util::json::Value;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectObjectWithKeys(const Value &v,
                     std::initializer_list<const char *> keys)
{
    ASSERT_TRUE(v.isObject());
    for (const char *key : keys)
        EXPECT_TRUE(v.contains(key)) << "missing key: " << key;
}

/** One characterization run shared by the shape/equivalence tests. */
const core::CharacterizationResult &
hmmsearchRun()
{
    static const core::CharacterizationResult res = [] {
        apps::AppRun run = apps::findApp("hmmsearch")
                               ->make(apps::Variant::Baseline,
                                      apps::Scale::Small, 42);
        return core::Simulator::characterize(run);
    }();
    return res;
}

} // namespace

// --------------------------------------------------------------------------
// JSON writer: round trips, typed numbers, escaping
// --------------------------------------------------------------------------

TEST(JsonValue, DumpParseRoundTripPreservesStructure)
{
    Value root = Value::object();
    root["int"] = -42;
    root["uint"] = static_cast<uint64_t>(18446744073709551615ull);
    root["double"] = 0.1;
    root["integral_double"] = 3.0;
    root["bool_true"] = true;
    root["bool_false"] = false;
    root["null"]; // operator[] creates a Null member
    root["string"] = std::string("plain");
    Value arr = Value::array();
    arr.push(1);
    arr.push(2.5);
    arr.push(std::string("three"));
    root["array"] = std::move(arr);
    Value nested = Value::object();
    nested["k"] = std::string("v");
    root["object"] = std::move(nested);

    for (int indent : { 0, 2 }) {
        Value back;
        std::string err;
        ASSERT_TRUE(util::json::parse(root.dump(indent), &back, &err))
            << err;
        EXPECT_EQ(back, root) << root.dump(indent);
    }
}

TEST(JsonValue, TypedNumbersSurviveExactly)
{
    // A uint64 above INT64_MAX must come back as the same Uint.
    const uint64_t big = 0xFFFFFFFFFFFFFFFEull;
    Value v = Value::object();
    v["big"] = big;
    v["neg"] = static_cast<int64_t>(-9223372036854775807LL);
    v["tiny"] = 5e-324; // smallest denormal: %.17g must hold it
    v["pi"] = 3.141592653589793;

    Value back;
    ASSERT_TRUE(util::json::parse(v.dump(), &back, nullptr));
    EXPECT_EQ(back["big"].asUint(), big);
    EXPECT_EQ(back["neg"].asInt(), -9223372036854775807LL);
    EXPECT_EQ(back["tiny"].asDouble(), 5e-324);
    EXPECT_EQ(back["pi"].asDouble(), 3.141592653589793);
}

TEST(JsonValue, IntegralDoubleKeepsDoubleness)
{
    // 3.0 must not dump as "3": a consumer reading the value back
    // would silently change its type from Double to Int.
    Value v(3.0);
    EXPECT_EQ(v.dump(0), "3.0");
    Value back;
    ASSERT_TRUE(util::json::parse("3.0", &back, nullptr));
    EXPECT_TRUE(back.isNumber());
    EXPECT_EQ(back.asDouble(), 3.0);
}

TEST(JsonValue, EscapingSpecialCharacters)
{
    EXPECT_EQ(util::json::escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(util::json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(util::json::escape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    EXPECT_EQ(util::json::escape(std::string("\x01", 1)), "\\u0001");

    // And the full loop: a hostile string survives dump -> parse.
    Value v = Value::object();
    v["k\"ey\\"] = std::string("v\n\t\r\f\b\"\\\x1f");
    Value back;
    std::string err;
    ASSERT_TRUE(util::json::parse(v.dump(), &back, &err)) << err;
    EXPECT_EQ(back, v);
}

TEST(JsonValue, ParseRejectsMalformedInput)
{
    for (const char *bad : { "{", "[1,", "{\"a\":}", "tru", "1 2",
                             "{\"a\" 1}", "\"unterminated" }) {
        Value out;
        std::string err;
        EXPECT_FALSE(util::json::parse(bad, &out, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonValue, ObjectsKeepInsertionOrder)
{
    Value v = Value::object();
    v["zebra"] = 1;
    v["apple"] = 2;
    v["mango"] = 3;
    const std::string s = v.dump(0);
    EXPECT_LT(s.find("zebra"), s.find("apple"));
    EXPECT_LT(s.find("apple"), s.find("mango"));
}

// --------------------------------------------------------------------------
// Report file writer and RunManifest
// --------------------------------------------------------------------------

TEST(JsonWriteFile, WritesReportTreeThatParsesBackEqual)
{
    Value component = Value::object();
    component["count"] = static_cast<uint64_t>(7);
    Value root = Value::object();
    root["fake"] = std::move(component);
    root["schema"] = Value(std::string("bioperf.test.v1"));
    root["extra"] = Value(true);

    EXPECT_EQ(root["fake"]["count"].asUint(), 7u);

    const std::string path = "metrics_test_writer.json";
    ASSERT_TRUE(util::json::writeFile(path, root));
    Value back;
    std::string err;
    ASSERT_TRUE(util::json::parse(slurp(path), &back, &err)) << err;
    EXPECT_EQ(back, root);
    std::remove(path.c_str());
}

TEST(JsonWriteFile, FailsOnBadPath)
{
    EXPECT_FALSE(util::json::writeFile("no/such/dir/metrics_test.json",
                                       Value::object()));
}

TEST(RunManifest, ReportHasEveryKeyAndComputesMips)
{
    util::RunManifest m;
    m.bench = "unit";
    m.app = "hmmsearch";
    m.platform = "alpha21264";
    m.threads = 4;
    m.addStage("work", 2.0, 50'000'000);

    const Value v = m.report();
    expectObjectWithKeys(v, { "bench", "app", "variant", "scale",
                              "seed", "platform", "threads",
                              "trace_mode", "stages" });
    EXPECT_EQ(v["variant"].asString(), "baseline");
    EXPECT_EQ(v["threads"].asUint(), 4u);
    ASSERT_TRUE(v["stages"].isArray());
    ASSERT_EQ(v["stages"].size(), 1u);
    const Value &st = v["stages"].at(0);
    expectObjectWithKeys(st, { "name", "wall_seconds", "instructions",
                               "simulated_mips" });
    EXPECT_EQ(st["simulated_mips"].asDouble(), 25.0);

    // A zero-wall-time stage must not divide by zero.
    util::RunManifest z;
    z.addStage("instant", 0.0, 1000);
    EXPECT_EQ(z.report()["stages"].at(0)["simulated_mips"].asDouble(),
              0.0);
}

// --------------------------------------------------------------------------
// Schema shape of the result reports
// --------------------------------------------------------------------------

TEST(ReportShape, CharacterizationResult)
{
    const auto &res = hmmsearchRun();
    ASSERT_TRUE(res.verified);

    const Value v = res.report();
    expectObjectWithKeys(v, { "instructions", "verified", "mix",
                              "coverage", "cache", "load_branch" });
    expectObjectWithKeys(
        v["mix"], { "total", "loads", "stores", "cond_branches",
                    "other", "fp_instrs", "fp_loads", "load_fraction",
                    "store_fraction", "branch_fraction",
                    "other_fraction", "fp_fraction",
                    "fp_load_fraction" });
    expectObjectWithKeys(v["coverage"],
                         { "dynamic_loads", "static_loads",
                           "loads_for_90pct", "coverage_at_80",
                           "cdf" });
    EXPECT_TRUE(v["coverage"]["cdf"].isArray());
    EXPECT_GT(v["coverage"]["cdf"].size(), 0u);
    expectObjectWithKeys(v["cache"],
                         { "loads", "load_l1_misses", "load_l2_misses",
                           "l1_local_miss_rate", "l2_local_miss_rate",
                           "overall_miss_rate", "amat" });
    expectObjectWithKeys(v["load_branch"],
                         { "dynamic_loads", "load_to_branch_fraction",
                           "ltb_branch_miss_rate",
                           "load_after_hard_branch_fraction" });
}

// --------------------------------------------------------------------------
// Equivalence: every exported number == its summary field, exactly
// --------------------------------------------------------------------------

TEST(ReportEquivalence, CharacterizationMatchesSummaries)
{
    const auto &res = hmmsearchRun();
    const Value v = res.report();

    EXPECT_EQ(v["instructions"].asUint(), res.instructions);
    EXPECT_EQ(v["verified"].asBool(), res.verified);

    const profile::MixSummary &mix = res.mix;
    const Value &m = v["mix"];
    EXPECT_EQ(m.size(), 13u);
    EXPECT_EQ(m["total"].asUint(), mix.total);
    EXPECT_EQ(m["loads"].asUint(), mix.loads);
    EXPECT_EQ(m["stores"].asUint(), mix.stores);
    EXPECT_EQ(m["cond_branches"].asUint(), mix.condBranches);
    EXPECT_EQ(m["other"].asUint(), mix.other);
    EXPECT_EQ(m["fp_instrs"].asUint(), mix.fpInstrs);
    EXPECT_EQ(m["fp_loads"].asUint(), mix.fpLoads);
    EXPECT_EQ(m["load_fraction"].asDouble(), mix.loadFraction);
    EXPECT_EQ(m["store_fraction"].asDouble(), mix.storeFraction);
    EXPECT_EQ(m["branch_fraction"].asDouble(), mix.branchFraction);
    EXPECT_EQ(m["other_fraction"].asDouble(), mix.otherFraction);
    EXPECT_EQ(m["fp_fraction"].asDouble(), mix.fpFraction);
    EXPECT_EQ(m["fp_load_fraction"].asDouble(), mix.fpLoadFraction);

    const profile::CoverageSummary &cov = res.coverage;
    const Value &c = v["coverage"];
    EXPECT_EQ(c.size(), 5u);
    EXPECT_EQ(c["dynamic_loads"].asUint(), cov.dynamicLoads);
    EXPECT_EQ(c["static_loads"].asUint(), cov.staticLoads);
    EXPECT_EQ(c["loads_for_90pct"].asUint(),
              static_cast<uint64_t>(cov.loadsFor90));
    EXPECT_EQ(c["coverage_at_80"].asDouble(), cov.coverageAt80);
    ASSERT_EQ(c["cdf"].size(), cov.cdf.size());
    for (size_t i = 0; i < cov.cdf.size(); i++)
        EXPECT_EQ(c["cdf"].at(i).asDouble(), cov.cdf[i]) << i;

    const profile::CacheSummary &cache = res.cache;
    const Value &k = v["cache"];
    EXPECT_EQ(k.size(), 7u);
    EXPECT_EQ(k["loads"].asUint(), cache.loads);
    EXPECT_EQ(k["load_l1_misses"].asUint(), cache.loadL1Misses);
    EXPECT_EQ(k["load_l2_misses"].asUint(), cache.loadL2Misses);
    EXPECT_EQ(k["l1_local_miss_rate"].asDouble(), cache.l1LocalMissRate);
    EXPECT_EQ(k["l2_local_miss_rate"].asDouble(), cache.l2LocalMissRate);
    EXPECT_EQ(k["overall_miss_rate"].asDouble(), cache.overallMissRate);
    EXPECT_EQ(k["amat"].asDouble(), cache.amat);

    const profile::LoadBranchSummary &lb = res.loadBranch;
    const Value &l = v["load_branch"];
    EXPECT_EQ(l.size(), 4u);
    EXPECT_EQ(l["dynamic_loads"].asUint(), lb.dynamicLoads);
    EXPECT_EQ(l["load_to_branch_fraction"].asDouble(),
              lb.loadToBranchFraction);
    EXPECT_EQ(l["ltb_branch_miss_rate"].asDouble(), lb.ltbBranchMissRate);
    EXPECT_EQ(l["load_after_hard_branch_fraction"].asDouble(),
              lb.loadAfterHardBranchFraction);

    // The serialized form preserves every number bit-for-bit.
    Value back;
    std::string err;
    ASSERT_TRUE(util::json::parse(v.dump(), &back, &err)) << err;
    EXPECT_EQ(back, v);
}

TEST(ReportEquivalence, TimingAndSpeedupMatchLegacyFields)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 13);
    const core::TimingResult t =
        core::Simulator::time(run, cpu::alpha21264());
    ASSERT_TRUE(t.verified);

    const Value v = t.report();
    expectObjectWithKeys(v, { "cycles", "instructions", "mispredicts",
                              "ipc", "seconds", "verified" });
    EXPECT_EQ(v["cycles"].asUint(), t.cycles);
    EXPECT_EQ(v["instructions"].asUint(), t.instructions);
    EXPECT_EQ(v["mispredicts"].asUint(), t.mispredicts);
    EXPECT_EQ(v["ipc"].asDouble(), t.ipc);
    EXPECT_EQ(v["seconds"].asDouble(), t.seconds);

    const core::SpeedupResult sp = core::Simulator::speedup(
        *apps::findApp("hmmsearch"), cpu::alpha21264(),
        apps::Scale::Small, 13);
    ASSERT_TRUE(sp.verified());
    const Value sv = sp.report();
    expectObjectWithKeys(sv, { "baseline", "transformed", "speedup",
                               "verified" });
    EXPECT_EQ(sv["baseline"], sp.baseline.report());
    EXPECT_EQ(sv["transformed"], sp.transformed.report());
    EXPECT_EQ(sv["speedup"].asDouble(), sp.speedup);

    Value back;
    ASSERT_TRUE(util::json::parse(sv.dump(), &back, nullptr));
    EXPECT_EQ(back, sv);
}

// --------------------------------------------------------------------------
// Bench harness file emission
// --------------------------------------------------------------------------

TEST(BenchHarness, DefaultPathAndJsonFlagOverride)
{
    bench::Harness plain("shape_check");
    EXPECT_EQ(plain.jsonPath(), "BENCH_shape_check.json");

    const char *argv[] = { "prog", "positional", "--json",
                           "override.json" };
    bench::Harness flagged("shape_check", 4,
                           const_cast<char **>(argv));
    EXPECT_EQ(flagged.jsonPath(), "override.json");
}

TEST(BenchHarness, FinishWritesSchemaConsistentReport)
{
    const std::string path = "metrics_test_harness.json";
    const char *argv[] = { "prog", "--json", path.c_str() };
    bench::Harness h("unit_harness", 3, const_cast<char **>(argv));
    h.manifest().app = "hmmsearch";
    h.manifest().platform = "alpha21264";
    h.manifest().addStage("work", 0.5, 1'000'000);
    h.metrics()["answer"] = static_cast<uint64_t>(42);

    EXPECT_EQ(h.finish(true), 0);

    Value v;
    std::string err;
    ASSERT_TRUE(util::json::parse(slurp(path), &v, &err)) << err;
    expectObjectWithKeys(v, { "schema", "bench", "ok", "manifest",
                              "metrics" });
    EXPECT_EQ(v["schema"].asString(), "bioperf.bench.v1");
    EXPECT_EQ(v["bench"].asString(), "unit_harness");
    EXPECT_TRUE(v["ok"].asBool());
    expectObjectWithKeys(v["manifest"],
                         { "bench", "app", "variant", "scale", "seed",
                           "platform", "threads", "trace_mode",
                           "stages" });
    EXPECT_EQ(v["manifest"]["bench"].asString(), "unit_harness");
    EXPECT_EQ(v["manifest"]["app"].asString(), "hmmsearch");
    ASSERT_EQ(v["manifest"]["stages"].size(), 1u);
    EXPECT_EQ(v["manifest"]["stages"].at(0)["simulated_mips"]
                  .asDouble(),
              2.0);
    EXPECT_EQ(v["metrics"]["answer"].asUint(), 42u);
    std::remove(path.c_str());
}

TEST(BenchHarness, FinishReportsFailure)
{
    const std::string path = "metrics_test_harness_fail.json";
    const char *argv[] = { "prog", "--json", path.c_str() };
    bench::Harness h("unit_harness", 3, const_cast<char **>(argv));
    EXPECT_EQ(h.finish(false), 1);

    Value v;
    ASSERT_TRUE(util::json::parse(slurp(path), &v, nullptr));
    EXPECT_FALSE(v["ok"].asBool());
    std::remove(path.c_str());
}
