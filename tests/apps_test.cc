#include <cctype>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "apps/hmmer/p7viterbi.h"
#include "ir/verify.h"
#include "profile/instruction_mix.h"
#include "profile/load_coverage.h"
#include "vm/interpreter.h"
#include "workload/hmm_gen.h"
#include "workload/sequences.h"

namespace bioperf::apps {
namespace {

TEST(Registry, NinePaperApplications)
{
    const auto &apps = bioperfApps();
    EXPECT_EQ(apps.size(), 9u);
    EXPECT_EQ(transformableApps().size(), 6u);
    EXPECT_NE(findApp("hmmsearch"), nullptr);
    EXPECT_NE(findApp("crafty-like"), nullptr);
    EXPECT_EQ(findApp("doom"), nullptr);
    EXPECT_EQ(specLikeApps().size(), 3u);
}

TEST(Registry, AreasMatchPaper)
{
    EXPECT_EQ(findApp("promlk")->area, "molecular phylogeny");
    EXPECT_EQ(findApp("dnapenny")->area, "molecular phylogeny");
    EXPECT_EQ(findApp("predator")->area, "protein structure");
    EXPECT_EQ(findApp("blast")->area, "sequence analysis");
    EXPECT_FALSE(findApp("blast")->transformable);
    EXPECT_TRUE(findApp("hmmsearch")->transformable);
}

/**
 * Test-name suffix of an (app, seed) case: the app name, with every
 * character gtest rejects replaced by '_', then the seed. The app is
 * a std::string, not a const char *, so that the parameter gtest
 * prints next to the name carries no pointer either.
 */
std::string
appSeedName(
    const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>
        &info)
{
    std::string name = std::get<0>(info.param);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name + "_" + std::to_string(std::get<1>(info.param));
}

/** Every app x seed: baseline verifies against its golden model. */
class BaselineGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>>
{
};

TEST_P(BaselineGoldenTest, VerifiesAndHasValidIr)
{
    const auto [name, seed] = GetParam();
    const AppInfo *app = findApp(name);
    ASSERT_NE(app, nullptr);
    AppRun run = app->make(Variant::Baseline, Scale::Small, seed);
    EXPECT_EQ(ir::verify(*run.prog), "") << name;
    vm::Interpreter interp(*run.prog);
    run.driver(interp);
    EXPECT_TRUE(run.verify()) << name << " seed " << seed;
    EXPECT_GT(interp.totalInstrs(), 1000u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, BaselineGoldenTest,
    ::testing::Combine(
        ::testing::Values("blast", "clustalw", "dnapenny", "fasta",
                          "hmmcalibrate", "hmmpfam", "hmmsearch",
                          "predator", "promlk", "crafty-like",
                          "vortex-like", "gcc-like"),
        ::testing::Values(1ull, 77ull)),
    appSeedName);

/** Transformed variants stay equivalent to the golden model. */
class TransformedGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>>
{
};

TEST_P(TransformedGoldenTest, VerifiesAndHasValidIr)
{
    const auto [name, seed] = GetParam();
    const AppInfo *app = findApp(name);
    ASSERT_NE(app, nullptr);
    AppRun run = app->make(Variant::Transformed, Scale::Small, seed);
    EXPECT_EQ(ir::verify(*run.prog), "") << name;
    vm::Interpreter interp(*run.prog);
    run.driver(interp);
    EXPECT_TRUE(run.verify()) << name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    TransformableApps, TransformedGoldenTest,
    ::testing::Combine(::testing::Values("clustalw", "dnapenny",
                                         "hmmcalibrate", "hmmpfam",
                                         "hmmsearch", "predator"),
                       ::testing::Values(5ull, 123ull, 2026ull)),
    appSeedName);

TEST(P7Viterbi, ReferenceMatchesKernelForManyModels)
{
    // Direct golden check of the shared core on random models and
    // sequences, for both variants.
    for (uint64_t seed : { 1ull, 2ull, 3ull, 4ull }) {
        util::Rng rng(seed);
        const auto model = workload::generateModel(
            rng, static_cast<int32_t>(rng.nextRange(2, 40)));
        const auto seq = workload::randomSequence(
            rng, 30 + rng.nextBelow(50), workload::kProteinAlphabet);
        const int64_t expect = hmmer::referenceViterbi(model, seq);

        for (Variant v : { Variant::Baseline, Variant::Transformed }) {
            ir::Program prog;
            const auto regions = hmmer::addViterbiRegions(
                prog, model.M, static_cast<int32_t>(seq.size()));
            ir::Function &fn = hmmer::buildP7Viterbi(prog, regions, v);
            compileKernel(prog, fn);
            vm::Interpreter interp(prog);
            hmmer::uploadModel(interp, prog, regions, model);
            hmmer::uploadSequence(interp, prog, regions, seq);
            hmmer::resetRows(interp, prog, regions);
            interp.run(fn, hmmer::viterbiParams(
                               model,
                               static_cast<int64_t>(seq.size())));
            EXPECT_EQ(hmmer::readScore(interp, prog, regions), expect)
                << "seed " << seed << " variant " << int(v);
        }
    }
}

TEST(P7Viterbi, HomologScoresAboveRandom)
{
    util::Rng rng(42);
    const auto model = workload::generateModel(rng, 60);
    const auto homolog = workload::emitFromModel(rng, model);
    const auto noise = workload::randomSequence(
        rng, homolog.size(), workload::kProteinAlphabet);
    EXPECT_GT(hmmer::referenceViterbi(model, homolog),
              hmmer::referenceViterbi(model, noise));
}

TEST(P7Viterbi, EdgeCaseTinyModelAndSequence)
{
    util::Rng rng(11);
    const auto model = workload::generateModel(rng, 1);
    const std::vector<uint8_t> seq = { 3 };
    for (Variant v : { Variant::Baseline, Variant::Transformed }) {
        ir::Program prog;
        const auto regions = hmmer::addViterbiRegions(prog, 1, 1);
        ir::Function &fn = hmmer::buildP7Viterbi(prog, regions, v);
        compileKernel(prog, fn);
        vm::Interpreter interp(prog);
        hmmer::uploadModel(interp, prog, regions, model);
        hmmer::uploadSequence(interp, prog, regions, seq);
        hmmer::resetRows(interp, prog, regions);
        interp.run(fn, hmmer::viterbiParams(model, 1));
        EXPECT_EQ(hmmer::readScore(interp, prog, regions),
                  hmmer::referenceViterbi(model, seq));
    }
}

TEST(P7Viterbi, EmptySequenceScoresInitialState)
{
    util::Rng rng(12);
    const auto model = workload::generateModel(rng, 8);
    const std::vector<uint8_t> empty;
    ir::Program prog;
    const auto regions = hmmer::addViterbiRegions(prog, 8, 4);
    ir::Function &fn =
        hmmer::buildP7Viterbi(prog, regions, Variant::Baseline);
    vm::Interpreter interp(prog);
    hmmer::uploadModel(interp, prog, regions, model);
    hmmer::resetRows(interp, prog, regions);
    interp.run(fn, hmmer::viterbiParams(model, 0));
    EXPECT_EQ(hmmer::readScore(interp, prog, regions),
              hmmer::referenceViterbi(model, empty));
}

TEST(Mix, PromlkIsFloatingPointDominated)
{
    AppRun run =
        findApp("promlk")->make(Variant::Baseline, Scale::Small, 3);
    profile::InstructionMixProfiler mix;
    vm::Interpreter interp(*run.prog);
    interp.addSink(&mix);
    run.driver(interp);
    EXPECT_GT(mix.summary().fpFraction, 0.4); // paper: 65.3%
    EXPECT_GT(mix.summary().fpLoadFraction, 0.15); // paper: 30.9%
}

TEST(Mix, IntegerAppsHaveNegligibleFp)
{
    for (const char *name : { "blast", "clustalw", "dnapenny",
                              "hmmsearch", "fasta" }) {
        AppRun run =
            findApp(name)->make(Variant::Baseline, Scale::Small, 3);
        profile::InstructionMixProfiler mix;
        vm::Interpreter interp(*run.prog);
        interp.addSink(&mix);
        run.driver(interp);
        // paper: <= 0.63%
        EXPECT_LT(mix.summary().fpFraction, 0.02) << name;
    }
}

TEST(Mix, FpOrderingMatchesTable1)
{
    // promlk >> predator > hmmpfam > hmmsearch (Table 1).
    auto fp_of = [](const char *name) {
        AppRun run =
            findApp(name)->make(Variant::Baseline, Scale::Small, 3);
        profile::InstructionMixProfiler mix;
        vm::Interpreter interp(*run.prog);
        interp.addSink(&mix);
        run.driver(interp);
        return mix.summary().fpFraction;
    };
    const double promlk = fp_of("promlk");
    const double predator = fp_of("predator");
    const double hmmpfam = fp_of("hmmpfam");
    const double hmmsearch = fp_of("hmmsearch");
    EXPECT_GT(promlk, predator);
    EXPECT_GT(predator, hmmpfam);
    EXPECT_GT(hmmpfam, hmmsearch);
}

TEST(Scales, LargerScalesRunLonger)
{
    auto instrs_at = [](Scale s) {
        AppRun run = findApp("hmmsearch")->make(Variant::Baseline, s, 5);
        vm::Interpreter interp(*run.prog);
        run.driver(interp);
        return interp.totalInstrs();
    };
    const uint64_t small = instrs_at(Scale::Small);
    const uint64_t medium = instrs_at(Scale::Medium);
    EXPECT_GT(medium, small * 4);
}

TEST(Determinism, SameSeedSameWork)
{
    auto checksum = []() {
        AppRun run =
            findApp("predator")->make(Variant::Baseline, Scale::Small, 9);
        vm::Interpreter interp(*run.prog);
        run.driver(interp);
        return interp.totalInstrs();
    };
    EXPECT_EQ(checksum(), checksum());
}

TEST(SpecLike, FlatterLoadProfileThanBioperf)
{
    // The Figure 2 premise at app level: same count of hot static
    // loads covers far less of the SPEC-like execution.
    auto coverage80 = [](const char *name) {
        AppRun run =
            findApp(name)->make(Variant::Baseline, Scale::Small, 21);
        profile::LoadCoverageProfiler cov;
        vm::Interpreter interp(*run.prog);
        interp.addSink(&cov);
        run.driver(interp);
        return cov.summary().coverageAt80;
    };
    EXPECT_GT(coverage80("hmmsearch"), 0.9);
    EXPECT_LT(coverage80("gcc-like"), 0.7);
}

TEST(Variants, UntransformableAppsIgnoreVariant)
{
    // Factories for blast/fasta/promlk take the variant but build
    // the same baseline kernel; both must verify.
    for (const char *name : { "blast", "fasta", "promlk" }) {
        AppRun run =
            findApp(name)->make(Variant::Transformed, Scale::Small, 2);
        vm::Interpreter interp(*run.prog);
        run.driver(interp);
        EXPECT_TRUE(run.verify()) << name;
    }
}

} // namespace
} // namespace bioperf::apps
