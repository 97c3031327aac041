#include "vm/segment_memo.h"

#include <algorithm>
#include <cstring>

namespace bioperf::vm {

namespace {

constexpr uint32_t kFirstIndexSize = 1024; // power of two

/**
 * The slot of @a hash in open-addressing @a index: the first slot
 * that is empty or whose entry @a same accepts.
 */
template <typename Same>
uint32_t
probe(const std::vector<uint32_t> &index, uint32_t hash, Same same)
{
    const uint32_t mask = static_cast<uint32_t>(index.size()) - 1;
    uint32_t p = hash & mask;
    while (index[p] != SegmentMemo::kNone && !same(index[p]))
        p = (p + 1) & mask;
    return p;
}

/**
 * Doubles @a index once it is half full (it then holds @a entries
 * ids); @a hash_of gives an entry's hash.
 */
template <typename HashOf>
void
growIndex(std::vector<uint32_t> &index, size_t entries, HashOf hash_of)
{
    if (2 * (entries + 1) <= index.size())
        return;
    index.assign(2 * index.size(), SegmentMemo::kNone);
    for (uint32_t id = 0; id < entries; id++)
        index[probe(index, hash_of(id), [](uint32_t) { return false; })] =
            id;
}

} // namespace

SegmentMemo::SegmentMemo()
{
    state_index_.assign(kFirstIndexSize, kNone);
    edge_index_.assign(kFirstIndexSize, kNone);
}

uint32_t
SegmentMemo::addSegment(const std::vector<uint32_t> &sids,
                        uint32_t num_loads)
{
    if (sids.size() > kMaxSegmentLen)
        return kNone;
    if (segments_.size() == kMaxSegments ||
        seg_sids_.size() + sids.size() > kMaxSegmentSids) {
        on_ = false;
        return kNone;
    }
    const uint32_t id = static_cast<uint32_t>(segments_.size());
    Segment s;
    s.sids = static_cast<uint32_t>(seg_sids_.size());
    s.len = static_cast<uint32_t>(sids.size());
    s.numLoads = num_loads;
    segments_.push_back(s);
    seg_sids_.insert(seg_sids_.end(), sids.begin(), sids.end());
    if (sids[0] >= seg_at_sid_.size())
        seg_at_sid_.resize(sids[0] + 1, kNone);
    seg_at_sid_[sids[0]] = id;
    return id;
}

uint32_t
SegmentMemo::intern(const std::vector<uint16_t> &words, int16_t span)
{
    // Four words a step: a miss interns a state of ~40-70 words.
    uint64_t x = words.size();
    size_t k = 0;
    for (; k + 4 <= words.size(); k += 4) {
        uint64_t quad;
        std::memcpy(&quad, &words[k], sizeof quad);
        x = (x ^ quad) * 0xff51afd7ed558ccdull;
        x ^= x >> 29;
    }
    for (; k < words.size(); k++)
        x = (x ^ words[k]) * 0xc4ceb9fe1a85ec53ull;
    const uint32_t hash = static_cast<uint32_t>(x ^ (x >> 32));
    const uint32_t p = probe(state_index_, hash, [&](uint32_t id) {
        const State &s = states_[id];
        return s.hash == hash && s.len == words.size() &&
               std::equal(words.begin(), words.end(), wordsOf(s));
    });
    if (state_index_[p] != kNone)
        return state_index_[p];
    const uint32_t len = static_cast<uint32_t>(words.size());
    uint32_t at = words_used_;
    if (at % kBlockWords + len > kBlockWords || word_blocks_.empty())
        at = static_cast<uint32_t>(word_blocks_.size()) * kBlockWords;
    if (states_.size() == kMaxStates || len > kBlockWords ||
        at + len > kMaxStateWords) {
        on_ = false;
        return kNone;
    }
    if (at / kBlockWords == word_blocks_.size())
        word_blocks_.push_back(std::make_unique<uint16_t[]>(kBlockWords));
    const uint32_t id = static_cast<uint32_t>(states_.size());
    states_.push_back({ at, static_cast<uint16_t>(len), span, hash });
    std::copy(words.begin(), words.end(),
              &word_blocks_[at / kBlockWords][at % kBlockWords]);
    words_used_ = at + len;
    state_index_[p] = id;
    growIndex(state_index_, states_.size(),
              [&](uint32_t i) { return states_[i].hash; });
    return id;
}

uint32_t
SegmentMemo::edgeHash(uint32_t state, uint32_t seg,
                      const uint32_t *inputs) const
{
    uint32_t x = state * 0x9e3779b1u ^ seg * 0x85ebca77u;
    for (uint32_t k = 0; k <= segments_[seg].numLoads; k++)
        x = (x ^ inputs[k]) * 0x01000193u;
    return x ^ (x >> 15);
}

bool
SegmentMemo::hasKey(uint32_t id, uint32_t state, uint32_t seg,
                    const uint32_t *inputs) const
{
    const Edge &e = edges_[id];
    if (e.state != state || e.seg != seg)
        return false;
    const uint32_t *own = inputsOf(e);
    for (uint32_t k = 0; k <= segments_[seg].numLoads; k++)
        if (own[k] != inputs[k])
            return false;
    return true;
}

uint32_t
SegmentMemo::replay(uint32_t last, uint32_t state, uint32_t seg,
                    const uint32_t *inputs)
{
    // The edge that followed the last one replayed, else a lookup.
    uint32_t e = last == kNone ? kNone : edges_[last].succ;
    if (e == kNone || !hasKey(e, state, seg, inputs)) {
        e = edge_index_[probe(edge_index_, edgeHash(state, seg, inputs),
                              [&](uint32_t id) {
                                  return hasKey(id, state, seg, inputs);
                              })];
        if (e == kNone)
            return kNone;
        if (last != kNone)
            edges_[last].succ = e;
    }
    replayed_ += segments_[seg].len;
    return e;
}

bool
SegmentMemo::addEdge(uint32_t state, uint32_t seg, const uint32_t *inputs,
                     uint32_t next, uint32_t client)
{
    const uint32_t n = segments_[seg].numLoads + 1;
    if (edges_.size() == kMaxEdges ||
        (n > 1 && edge_inputs_.size() + n > kMaxEdgeInputs)) {
        on_ = false;
        return false;
    }
    const uint32_t p = probe(edge_index_, edgeHash(state, seg, inputs),
                             [](uint32_t) { return false; });
    const uint32_t id = static_cast<uint32_t>(edges_.size());
    uint32_t at = inputs[0];
    if (n > 1) {
        at = static_cast<uint32_t>(edge_inputs_.size());
        edge_inputs_.insert(edge_inputs_.end(), inputs, inputs + n);
    }
    edges_.push_back(
        { state, seg, at, next, kNone, client, states_[next].span });
    edge_index_[p] = id;
    growIndex(edge_index_, edges_.size(), [&](uint32_t i) {
        const Edge &e = edges_[i];
        return edgeHash(e.state, e.seg, inputsOf(e));
    });
    on_ = on_ && (edges_.size() < kProbationEdges ||
                  replayed_ >= edges_.size());
    return on_;
}

} // namespace bioperf::vm
