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
#include <limits>
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

/**
 * The report bench::Harness::finish() writes for a bench named
 * "unit_harness", from the manifest and metrics it held.
 */
Value
harnessReport(bool ok, const Value &manifest, const Value &metrics)
{
    Value r = Value::object();
    r["schema"] = "bioperf.bench.v1";
    r["bench"] = "unit_harness";
    r["ok"] = ok;
    r["manifest"] = manifest;
    r["metrics"] = metrics;
    return r;
}

} // namespace

// --------------------------------------------------------------------------
// JSON writer: exact text, typed numbers, escaping
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
    root["empty_array"] = Value::array();
    root["empty_object"] = Value::object();

    EXPECT_EQ(root.dump(0),
              R"({"int":-42,"uint":18446744073709551615,)"
              R"("double":0.10000000000000001,"integral_double":3.0,)"
              R"("bool_true":true,"bool_false":false,"null":null,)"
              R"("string":"plain","array":[1,2.5,"three"],)"
              R"("object":{"k":"v"},"empty_array":[],"empty_object":{}})");
    EXPECT_EQ(root.dump(2), R"({
  "int": -42,
  "uint": 18446744073709551615,
  "double": 0.10000000000000001,
  "integral_double": 3.0,
  "bool_true": true,
  "bool_false": false,
  "null": null,
  "string": "plain",
  "array": [
    1,
    2.5,
    "three"
  ],
  "object": {
    "k": "v"
  },
  "empty_array": [],
  "empty_object": {}
}
)");
}

TEST(JsonValue, TypedNumbersSurviveExactly)
{
    // A uint64 above INT64_MAX prints as that integer, and a double
    // prints with the 17 digits that name it exactly.
    Value v = Value::object();
    v["big"] = static_cast<uint64_t>(0xFFFFFFFFFFFFFFFEull);
    v["neg"] = static_cast<int64_t>(-9223372036854775807LL);
    v["tiny"] = 5e-324; // smallest denormal: %.17g must hold it
    v["pi"] = 3.141592653589793;
    EXPECT_EQ(v.dump(0), R"({"big":18446744073709551614,)"
                         R"("neg":-9223372036854775807,)"
                         R"("tiny":4.9406564584124654e-324,)"
                         R"("pi":3.1415926535897931})");
}

TEST(JsonValue, IntegralDoubleKeepsDoubleness)
{
    // 3.0 must not dump as "3": a reader that types numbers by their
    // text (Python's json) would silently read an int.
    EXPECT_EQ(Value(3.0).dump(0), "3.0");
    EXPECT_EQ(Value(-0.0).dump(0), "-0.0");
    EXPECT_EQ(Value(3).dump(0), "3");
    // An exponent already marks a float; no ".0" is appended.
    EXPECT_EQ(Value(1e300).dump(0), "1.0000000000000001e+300");
}

TEST(JsonValue, NonFiniteDoublesDumpAsNull)
{
    // JSON has no NaN or infinity; the writer emits null for each.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Value v = Value::object();
    v["nan"] = nan;
    v["inf"] = inf;
    v["ninf"] = -inf;
    Value arr = Value::array();
    arr.push(nan);
    arr.push(inf);
    arr.push(-inf);
    v["array"] = std::move(arr);

    EXPECT_EQ(v.dump(0), R"({"nan":null,"inf":null,"ninf":null,)"
                         R"("array":[null,null,null]})");
    EXPECT_EQ(v.dump(2), R"({
  "nan": null,
  "inf": null,
  "ninf": null,
  "array": [
    null,
    null,
    null
  ]
}
)");
}

TEST(JsonValue, EscapingSpecialCharacters)
{
    EXPECT_EQ(Value("say \"hi\"").dump(0), R"("say \"hi\"")");
    EXPECT_EQ(Value("a\\b").dump(0), R"("a\\b")");
    EXPECT_EQ(Value("line\nbreak\ttab").dump(0), R"("line\nbreak\ttab")");
    EXPECT_EQ(Value(std::string("\x01", 1)).dump(0), R"("\u0001")");

    // Keys are escaped like values.
    Value v = Value::object();
    v["k\"ey\\"] = std::string("v\n\t\r\f\b\"\\\x1f");
    EXPECT_EQ(v.dump(0), R"({"k\"ey\\":"v\n\t\r\f\b\"\\\u001f"})");
    EXPECT_EQ(v.dump(2), "{\n  " R"("k\"ey\\": "v\n\t\r\f\b\"\\\u001f")"
                         "\n}\n");
}

TEST(JsonValue, ObjectsKeepInsertionOrder)
{
    Value v = Value::object();
    v["zebra"] = 1;
    v["apple"] = 2;
    v["mango"] = 3;
    v["apple"] = 4; // an existing key keeps its place
    EXPECT_EQ(v.dump(0), R"({"zebra":1,"apple":4,"mango":3})");
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

    // The file holds exactly the indent-2 dump.
    const std::string path = "metrics_test_writer.json";
    ASSERT_TRUE(util::json::writeFile(path, root));
    EXPECT_EQ(slurp(path), root.dump(2));
    EXPECT_EQ(slurp(path), R"({
  "fake": {
    "count": 7
  },
  "schema": "bioperf.test.v1",
  "extra": true
}
)");
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

    // The serialized form carries each double with the 17 significant
    // digits that name it exactly.
    const std::string text = v.dump(0);
    for (double d : { mix.loadFraction, cov.coverageAt80, cache.amat,
                      lb.ltbBranchMissRate }) {
        char numeral[40];
        std::snprintf(numeral, sizeof numeral, "%.17g", d);
        EXPECT_NE(text.find(numeral), std::string::npos) << numeral;
    }
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
    EXPECT_EQ(sv["baseline"].dump(), sp.baseline.report().dump());
    EXPECT_EQ(sv["transformed"].dump(), sp.transformed.report().dump());
    EXPECT_EQ(sv["speedup"].asDouble(), sp.speedup);
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
    const Value manifest = h.manifest().report();
    const Value metrics = h.metrics();

    EXPECT_EQ(h.finish(true), 0);

    const std::string text = slurp(path);
    EXPECT_EQ(text, harnessReport(true, manifest, metrics).dump(2));
    EXPECT_NE(text.find("\"answer\": 42\n"), std::string::npos);
    EXPECT_NE(text.find("\"simulated_mips\": 2.0\n"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchHarness, FinishReportsFailure)
{
    const std::string path = "metrics_test_harness_fail.json";
    const char *argv[] = { "prog", "--json", path.c_str() };
    bench::Harness h("unit_harness", 3, const_cast<char **>(argv));
    const Value manifest = h.manifest().report();
    EXPECT_EQ(h.finish(false), 1);

    EXPECT_EQ(slurp(path),
              harnessReport(false, manifest, Value::object()).dump(2));
    std::remove(path.c_str());
}
