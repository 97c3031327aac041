#ifndef BIOPERF_VM_SEGMENT_DRIVER_H_
#define BIOPERF_VM_SEGMENT_DRIVER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vm/segment_memo.h"

namespace bioperf::vm {

/**
 * The one state machine over a SegmentMemo. A trace sink derives from
 * SegmentDriver<Sink> and keeps only its rules and its state codec; the
 * driver decides which segments are skipped, stepped or recorded, and
 * which edges are replayed or learnt. Every hook is a direct call.
 *
 * feed(n) drives events [0, n) of the client's current view (its batch
 * or chunk):
 *  - At a boundary, a known segment is skipped when the state there is
 *    interned and the memo is on; any other is stepped live, and
 *    recorded if it is new.
 *  - While a segment is skipped, gather() resolves its events as they
 *    pass, across views, and collects its inputs. At its terminal one
 *    SegmentMemo::replay() either hits (applyEdge(); the stepped state
 *    goes stale) or misses: the state is materialised, the segment
 *    stepped from its recorded sids and the gathered inputs, the next
 *    state interned and the edge added. No step of a skipped segment
 *    reads the live events.
 *  - A skipped segment still open at a read (catchUp()), at a run end
 *    or at a jump (makeCurrent()) has its executed prefix stepped from
 *    the recording; the rest is stepped live and adds no edge. A jump
 *    also ends the recording of a new segment, which is not stored.
 *  - Between run ends, gaps and jumps the stream follows the program's
 *    control flow, so a segment's first sid fixes the rest of it: a
 *    skipped event's sid is read only by a Debug check.
 *  - At a run start (endRun(), or restart() after the client reset
 *    itself) the state is interned, so a run's first segment can be
 *    replayed. A new client has no interned state.
 *
 * The hooks (events are indices into the current view):
 *  - `sidAt(i)`: event i's sid.
 *  - `gather(seg, pos, i, k, inputs)`: events [i, i + k) are segment
 *    seg's [pos, pos + k), skipped. Resolves what they feed the client
 *    (the cores: their memory operations' accesses, from a table the
 *    core keeps per recorded segment) and writes the input of each
 *    recorded load among them to inputs[its load index].
 *  - `terminal(t, seg, rec)`: event t ends segment seg (kNone: not
 *    recorded); rec is set when the segment is new. Returns the
 *    terminal's input word. Called once per terminal, stepped or
 *    skipped: a skipped terminal is resolved here (the cores predict
 *    it), a stepped one was resolved by stepLive().
 *  - `applyEdge(e, len, fresh)`: replays edge e over len events; fresh
 *    when the stepped state was current until now.
 *  - `stepLive(i, n, rec, ended)`: resolves and steps events from i
 *    through the first terminal (ended) or to n, recording them into
 *    rec if set; returns where it stopped. With the memo off it may
 *    ignore terminals.
 *  - `stepRecorded(s, len, inputs)`: steps segment s's first len
 *    recorded events (the terminal's input is read only for all).
 *  - `segmentStart()`, `segmentEnd()`: bracket a stepped segment;
 *    segmentEnd() applies what follows its terminal and returns the
 *    edge's client word.
 *  - `saveState(words, span, sids, len)`: the stepped state after the
 *    segment sids[0, len) (none: not after a step) as canonical words;
 *    false when it cannot be written.
 *  - `loadState(words, len)`: makes the stepped state those words.
 *  - `clearRun()`: a run start's state (registers drained).
 */
template <typename Client>
class SegmentDriver
{
  public:
    /** Events replayed from the memo, not stepped, since construction. */
    uint64_t replayedInstructions() const { return memo_.replayed(); }

  protected:
    static constexpr uint32_t kNone = SegmentMemo::kNone;

    /** A new segment as it is stepped. */
    struct Recording
    {
        std::vector<uint32_t> sids;
        /** Its input loads' inputs, then the terminal's. */
        std::vector<uint32_t> inputs;
    };

    const SegmentMemo &memo() const { return memo_; }

    /** Drives events [0, @a n) of the client's current view. */
    void
    feed(size_t n)
    {
        for (size_t i = 0; i < n;) {
            if (mode_ == kBoundary)
                enter(client().sidAt(i));
            i = mode_ == kSkip ? skipSome(i, n) : stepSome(i, n);
        }
    }

    /**
     * Steps the executed prefix of a skipped segment from its recording
     * (a read); the rest of it steps live.
     */
    void
    catchUp()
    {
        if (mode_ != kSkip)
            return;
        materializeCur();
        client().segmentStart();
        client().stepRecorded(memo_.segment(seg_), pos_, inputs_);
        mode_ = kStep;
        recording_ = false;
    }

    /**
     * Makes the stepped state current; the rest of the segment adds no
     * edge. Called before the client changes how it steps, and where
     * the stream jumps (events in between were not fed).
     */
    void
    makeCurrent()
    {
        catchUp();
        materializeCur();
        recording_ = false;
    }

    /** A run end or gap: the next event starts a run. */
    void
    endRun()
    {
        makeCurrent();
        client().clearRun();
        restart();
    }

    /**
     * The stepped state is a run start's (the client reset it): the
     * open segment is dropped and the state interned.
     */
    void
    restart()
    {
        mode_ = kBoundary;
        recording_ = false;
        stepped_ = true;
        last_ = kNone;
        cur_ = boundaryState(nullptr, 0);
    }

  private:
    enum Mode : uint8_t
    {
        kBoundary, ///< the next event starts a segment
        kSkip,     ///< seg_ is skipped; pos_ of its events seen
        kStep      ///< the segment is stepped live
    };

    Client &client() { return static_cast<Client &>(*this); }

    void
    enter(uint32_t sid)
    {
        seg_ = memo_.segmentAt(sid);
        if (seg_ != kNone && cur_ != kNone && memo_.on()) {
            mode_ = kSkip;
            pos_ = 0;
            return;
        }
        materializeCur();
        mode_ = kStep;
        recording_ = seg_ == kNone;
        if (recording_) {
            record_.sids.clear();
            record_.inputs.clear();
        }
        client().segmentStart();
    }

    /**
     * Skips segments from @a i while they are known and hit. Not
     * inlined: on its own, the loop keeps its values in registers.
     */
    [[gnu::noinline]] size_t
    skipSome(size_t i, size_t n)
    {
        uint32_t pos = pos_;
        for (;;) {
            const SegmentMemo::Segment &s = memo_.segment(seg_);
            const size_t k = std::min<size_t>(s.len - pos, n - i);
#ifndef NDEBUG
            for (size_t j = 0; j < k; j++)
                assert(client().sidAt(i + j) == memo_.sidsOf(s)[pos + j]);
#endif
            client().gather(seg_, pos, i, k, inputs_);
            pos += static_cast<uint32_t>(k);
            i += k;
            if (pos < s.len) {
                pos_ = pos;
                return i;
            }

            inputs_[s.numLoads] = client().terminal(i - 1, seg_, nullptr);
            const uint32_t e = memo_.replay(last_, cur_, seg_, inputs_);
            if (e == kNone) {
                materializeCur();
                client().segmentStart();
                client().stepRecorded(s, s.len, inputs_);
                close(seg_, memo_.sidsOf(s), s.len, inputs_);
                return i;
            }
            const SegmentMemo::Edge &edge = memo_.edge(e);
            client().applyEdge(edge, s.len, stepped_);
            stepped_ = false;
            cur_ = edge.next;
            last_ = e;
            // The next segment is skipped if it is known: the state is
            // interned and the memo is still on.
            if (i == n)
                break;
            seg_ = memo_.segmentAt(client().sidAt(i));
            if (seg_ == kNone)
                break;
            pos = 0;
        }
        mode_ = kBoundary;
        return i;
    }

    size_t
    stepSome(size_t i, size_t n)
    {
        Recording *rec = recording_ ? &record_ : nullptr;
        bool ended = false;
        const size_t stop = client().stepLive(i, n, rec, ended);
        if (!ended)
            return stop;
        if (rec) {
            const uint32_t seg = memo_.addSegment(
                rec->sids, static_cast<uint32_t>(rec->inputs.size()));
            rec->inputs.push_back(client().terminal(stop - 1, seg, rec));
            close(seg, rec->sids.data(), rec->sids.size(),
                  rec->inputs.data());
            return stop;
        }
        client().terminal(stop - 1, seg_, nullptr);
        if (seg_ == kNone) {
            close(kNone, nullptr, 0, nullptr);
        } else {
            const SegmentMemo::Segment &s = memo_.segment(seg_);
            close(seg_, memo_.sidsOf(s), s.len, nullptr);
        }
        return stop;
    }

    /**
     * The stepped segment @a seg (its sids @a sids) has ended: interns
     * the state there and, given its @a inputs, adds the edge to it.
     */
    void
    close(uint32_t seg, const uint32_t *sids, size_t len,
          const uint32_t *inputs)
    {
        const uint32_t word = client().segmentEnd();
        const uint32_t from = cur_;
        cur_ = boundaryState(sids, len);
        last_ = kNone;
        mode_ = kBoundary;
        if (inputs && seg != kNone && from != kNone && cur_ != kNone)
            memo_.addEdge(from, seg, inputs, cur_, word);
    }

    /** The interned stepped state, or kNone. */
    uint32_t
    boundaryState(const uint32_t *sids, size_t len)
    {
        int16_t span = 0;
        if (!memo_.on() || !client().saveState(words_, span, sids, len))
            return kNone;
        return memo_.intern(words_, span);
    }

    /** Makes the stepped state cur_'s, if replay left it stale. */
    void
    materializeCur()
    {
        if (stepped_)
            return;
        const SegmentMemo::State &s = memo_.state(cur_);
        client().loadState(memo_.wordsOf(s), s.len);
        stepped_ = true;
#ifndef NDEBUG
        std::vector<uint16_t> back;
        int16_t span = 0;
        const bool saved = client().saveState(back, span, nullptr, 0);
        assert(saved && span == s.span && back.size() == s.len &&
               std::equal(back.begin(), back.end(), memo_.wordsOf(s)));
#endif
    }

    SegmentMemo memo_;
    Mode mode_ = kBoundary;
    /** The client's stepped state is current (no replay since). */
    bool stepped_ = true;
    /** The stepped segment is new: record_ holds it from its start. */
    bool recording_ = false;
    /** Interned state at the current segment's start (or kNone). */
    uint32_t cur_ = kNone;
    uint32_t last_ = kNone; ///< the edge just replayed
    uint32_t seg_ = kNone;  ///< the current segment, if recorded
    uint32_t pos_ = 0;      ///< its events skipped so far
    Recording record_;
    /** A skipped segment's edge inputs. */
    uint32_t inputs_[SegmentMemo::kMaxSegmentLen + 1] = {};
    std::vector<uint16_t> words_;  ///< saveState() scratch
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_SEGMENT_DRIVER_H_
