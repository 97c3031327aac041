#ifndef BIOPERF_BRANCH_PREDICTORS_H_
#define BIOPERF_BRANCH_PREDICTORS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bioperf::branch {

namespace detail {

/**
 * Next state of a saturating 2-bit counter:
 * kCounterNext[taken][counter].
 */
inline constexpr uint8_t kCounterNext[2][4] = { { 0, 0, 1, 2 },
                                                { 1, 2, 3, 3 } };

/** Saturating 2-bit counter helpers: >=2 means predict taken. */
constexpr bool
counterTaken(uint8_t c)
{
    return c >= 2;
}

constexpr uint8_t
counterTrain(uint8_t c, bool taken)
{
    return kCounterNext[taken][c];
}

} // namespace detail

/**
 * Abstract conditional branch predictor keyed by static branch id.
 *
 * The characterization experiments use HybridPredictor with one entry
 * per static branch (no aliasing), as the paper specifies. Per-branch
 * accuracy statistics are collected in the base class so Table 4's
 * per-sequence misprediction rates can be derived.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    virtual const char *name() const = 0;

    /**
     * Predicts branch @a sid, trains on the actual outcome, records
     * statistics, and returns true iff the prediction was correct.
     */
    virtual bool predictAndTrain(uint32_t sid, bool taken);

    /** Dynamic executions observed for branch @a sid. */
    virtual uint64_t executions(uint32_t sid) const
    {
        return sid < exec_.size() ? exec_[sid] : 0;
    }
    /** Mispredictions observed for branch @a sid. */
    virtual uint64_t mispredictions(uint32_t sid) const
    {
        return sid < miss_.size() ? miss_[sid] : 0;
    }
    /** Per-branch misprediction rate in [0, 1]. */
    double missRate(uint32_t sid) const
    {
        const uint64_t e = executions(sid);
        return e == 0 ? 0.0
                      : static_cast<double>(mispredictions(sid)) /
                            static_cast<double>(e);
    }

    uint64_t totalExecutions() const { return total_exec_; }
    uint64_t totalMispredictions() const { return total_miss_; }
    double overallMissRate() const;

    /**
     * Returns the predictor to its initial state — statistics and all
     * trained tables — while keeping allocated storage, mirroring
     * mem::CacheHierarchy::reset(). Sampling shard workers call this
     * between shards instead of reconstructing the predictor.
     */
    virtual void reset();

    /**
     * Direct access to the prediction/training machinery without the
     * statistics bookkeeping, so predictors can be composed (the
     * tests compose a reference hybrid from these).
     */
    bool rawPredict(uint32_t sid) { return predict(sid); }
    void rawTrain(uint32_t sid, bool taken) { train(sid, taken); }

  protected:
    virtual bool predict(uint32_t sid) = 0;
    virtual void train(uint32_t sid, bool taken) = 0;

    /** Inline fast path; table growth stays out of line. */
    void
    noteOutcome(uint32_t sid, bool correct)
    {
        if (sid >= exec_.size()) [[unlikely]]
            growStats(sid);
        exec_[sid]++;
        if (!correct)
            miss_[sid]++;
        noteTotal(correct);
    }
    /** The totals part of noteOutcome(). */
    void
    noteTotal(bool correct)
    {
        total_exec_++;
        if (!correct)
            total_miss_++;
    }

  private:
    void growStats(uint32_t sid);

    std::vector<uint64_t> exec_;
    std::vector<uint64_t> miss_;
    uint64_t total_exec_ = 0;
    uint64_t total_miss_ = 0;
};

/** Always predicts the actual outcome (an oracle, for ablations). */
class PerfectPredictor : public BranchPredictor
{
  public:
    const char *name() const override { return "perfect"; }

    bool
    predictAndTrain(uint32_t sid, bool) override
    {
        noteOutcome(sid, true);
        return true;
    }

  protected:
    bool predict(uint32_t) override { return true; }
    void train(uint32_t, bool) override {}
};

/** Static predict-taken (or not-taken) baseline. */
class StaticPredictor : public BranchPredictor
{
  public:
    explicit StaticPredictor(bool predict_taken = true)
        : taken_(predict_taken)
    {
    }
    const char *name() const override
    {
        return taken_ ? "static-taken" : "static-not-taken";
    }

  protected:
    bool predict(uint32_t) override { return taken_; }
    void train(uint32_t, bool) override {}

  private:
    bool taken_;
};

/** One saturating 2-bit counter per static branch. */
class BimodalPredictor : public BranchPredictor
{
  public:
    const char *name() const override { return "bimodal"; }
    void reset() override;

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    std::vector<uint8_t> counters_; ///< 2-bit, initialized weakly taken
};

/**
 * Gshare: global history XOR branch id indexes a shared table of
 * 2-bit counters.
 */
class GsharePredictor final : public BranchPredictor
{
  public:
    explicit GsharePredictor(uint32_t history_bits = 12);
    const char *name() const override { return "gshare"; }
    void reset() override;

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    uint32_t history_bits_;
    uint32_t history_ = 0;
    std::vector<uint8_t> table_;
};

/**
 * Two-level local predictor with a private history register and a
 * private pattern table per static branch (no aliasing).
 */
class LocalPredictor final : public BranchPredictor
{
  public:
    explicit LocalPredictor(uint32_t history_bits = 10);
    const char *name() const override { return "local"; }
    void reset() override;

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    /**
     * One static branch: the index + 1 of its pattern table (0 until
     * the branch is first seen) and its local history.
     */
    struct Branch
    {
        uint32_t tablePlus1 = 0;
        uint32_t history = 0;
    };

    Branch &branchOf(uint32_t sid);
    /** The pattern-table counter @a b's history selects. */
    uint8_t &
    counterOf(const Branch &b)
    {
        return patterns_[(size_t(b.tablePlus1 - 1) << history_bits_) +
                         b.history];
    }

    uint32_t history_bits_;
    std::vector<Branch> branches_; ///< indexed by sid
    /**
     * Per-branch pattern tables stored contiguously (table @a t spans
     * [t << history_bits_, (t + 1) << history_bits_)). A table is
     * added when its branch is first seen, so the tables grow with
     * the branches seen rather than the largest sid.
     */
    std::vector<uint8_t> patterns_;
};

/**
 * McFarling-style hybrid: a local and a gshare component with a 2-bit
 * chooser per static branch. This is the configuration the paper uses
 * for its Table 4 misprediction rates.
 *
 * It runs once per dynamic conditional branch in every
 * characterization, timing run and sampled warm-up, so it is one flat
 * class rather than a composition of LocalPredictor and
 * GsharePredictor (which it matches prediction for prediction): all
 * of one branch's state is one Branch record, reached by one sid
 * lookup, and the gshare table and history are its own members.
 */
class HybridPredictor final : public BranchPredictor
{
  public:
    /** Everything the predictor keeps for one static branch. */
    struct Branch
    {
        /** Offset of the branch's local pattern table in patterns_. */
        uint32_t patterns = 0;
        /** Local history, the last history bits outcomes. */
        uint16_t history = 0;
        /** 2-bit; >=2 prefers the local component. */
        uint8_t chooser = 2;
        /** The branch has a pattern table. */
        bool seen = false;
        uint64_t executions = 0;
        uint64_t mispredictions = 0;
    };

    /** @a local_history_bits is at most 16. */
    HybridPredictor(uint32_t local_history_bits = 10,
                    uint32_t global_history_bits = 12);
    const char *name() const override { return "hybrid"; }
    void reset() override;

    bool
    predictAndTrain(uint32_t sid, bool taken) override
    {
        bool correct;
        update(sid, taken, correct);
        return correct;
    }

    /**
     * predictAndTrain() for a caller that also judges the branch:
     * returns its record, whose counts already include this
     * execution, and sets @a correct.
     */
    const Branch &
    update(uint32_t sid, bool taken, bool &correct)
    {
        Branch &b = branchOf(sid);
        correct = step(b, sid, taken) == taken;
        b.executions++;
        if (!correct)
            b.mispredictions++;
        noteTotal(correct);
        return b;
    }

    uint64_t
    executions(uint32_t sid) const override
    {
        return sid < branches_.size() ? branches_[sid].executions : 0;
    }
    uint64_t
    mispredictions(uint32_t sid) const override
    {
        return sid < branches_.size() ? branches_[sid].mispredictions
                                      : 0;
    }

  protected:
    bool predict(uint32_t sid) override;
    void train(uint32_t sid, bool taken) override;

  private:
    Branch &
    branchOf(uint32_t sid)
    {
        if (sid >= branches_.size() || !branches_[sid].seen) [[unlikely]]
            addBranch(sid);
        return branches_[sid];
    }
    void addBranch(uint32_t sid);

    uint32_t
    globalIndex(uint32_t sid) const
    {
        // Multiply by a large odd constant to spread consecutive
        // static ids across the table before XORing with the history.
        return ((sid * 2654435761u) ^ global_history_) & global_mask_;
    }

    /**
     * Trains both components and the chooser of branch @a b (static
     * id @a sid) on @a taken; returns the prediction made before.
     */
    bool
    step(Branch &b, uint32_t sid, bool taken)
    {
        using detail::counterTaken;
        using detail::kCounterNext;
        // Every load comes before the first store: the counters are
        // bytes, and a byte store may alias anything, so a load after
        // it could not be kept in a register.
        uint8_t *const lc = patterns_.data() + b.patterns + b.history;
        uint8_t *const gc = global_.data() + globalIndex(sid);
        const uint8_t lv = *lc;
        const uint8_t gv = *gc;
        const uint8_t chooser = b.chooser;
        const uint32_t history = b.history;
        const uint32_t global_history = global_history_;
        const bool local = counterTaken(lv);
        const bool global = counterTaken(gv);
        const uint32_t t = taken ? 1 : 0;

        *lc = kCounterNext[t][lv];
        *gc = kCounterNext[t][gv];
        b.history = static_cast<uint16_t>(((history << 1) | t) &
                                          local_mask_);
        global_history_ = ((global_history << 1) | t) & global_mask_;
        // The chooser moves only when the components disagree, toward
        // the one that was right.
        if (local != global)
            b.chooser = kCounterNext[local == taken][chooser];
        return counterTaken(chooser) ? local : global;
    }

    uint32_t local_history_bits_;
    uint32_t local_mask_;
    uint32_t global_mask_;
    uint32_t global_history_ = 0;
    std::vector<Branch> branches_; ///< indexed by sid
    /**
     * Per-branch local pattern tables, contiguous, one added when its
     * branch is first seen (see LocalPredictor::patterns_).
     */
    std::vector<uint8_t> patterns_;
    /** The gshare table. */
    std::vector<uint8_t> global_;
};

/** Factory by name: perfect, static, bimodal, gshare, local, hybrid. */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

} // namespace bioperf::branch

#endif // BIOPERF_BRANCH_PREDICTORS_H_
