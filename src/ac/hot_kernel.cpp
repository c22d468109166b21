#include "ac/hot_kernel.hpp"

#include <algorithm>
#include <bit>

#include "common/invariant.hpp"

namespace dpisvc::ac {

const KernelPolicy& kernel_policy() {
  static const KernelPolicy policy = [] {
    KernelPolicy p;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    p.wide_interleave = __builtin_cpu_supports("avx2") != 0;
#endif
    p.interleave = p.wide_interleave ? 8 : 4;
    p.reason = p.wide_interleave ? "batched, interleave 8 (avx2)"
                                 : "batched, interleave 4";
    return p;
  }();
  return policy;
}

HotKernel HotKernel::build(const CompressedAutomaton& automaton,
                           std::uint32_t max_hot_states) {
  HotKernel k;
  const std::uint32_t n = automaton.num_states();
  if (n == 0 || max_hot_states == 0) return k;

  // --- hot-core selection ---------------------------------------------------
  // All states of depth <= D for the largest D whose cumulative state count
  // fits the u16 id space: the dense near-root core almost every input byte
  // lands in. When everything fits there are no cold transitions at all.
  std::uint32_t max_depth = 0;
  for (StateIndex s = 0; s < n; ++s) {
    max_depth = std::max(max_depth, automaton.depth(s));
  }
  std::vector<std::uint32_t> per_depth(max_depth + 1, 0);
  for (StateIndex s = 0; s < n; ++s) ++per_depth[automaton.depth(s)];
  std::uint32_t hot_depth = 0;
  std::uint64_t cumulative = per_depth[0];
  while (hot_depth < max_depth &&
         cumulative + per_depth[hot_depth + 1] <= max_hot_states) {
    ++hot_depth;
    cumulative += per_depth[hot_depth];
  }
  if (cumulative > max_hot_states) return k;  // even the root layer overflows

  // Renumber the core accepting-first so acceptance stays `id < accepting`
  // (§5.1): automaton accepting states are exactly {0..f-1}, so two
  // ascending passes keep both orders aligned with the automaton numbering.
  k.hot_of_.assign(n, kColdExit);
  k.state_of_.reserve(cumulative);
  const std::uint32_t f = automaton.num_accepting();
  for (StateIndex s = 0; s < n; ++s) {
    if (s < f && automaton.depth(s) <= hot_depth) {
      k.hot_of_[s] = static_cast<std::uint16_t>(k.state_of_.size());
      k.state_of_.push_back(s);
    }
  }
  k.hot_accepting_ = static_cast<std::uint32_t>(k.state_of_.size());
  for (StateIndex s = 0; s < n; ++s) {
    if (s >= f && automaton.depth(s) <= hot_depth) {
      k.hot_of_[s] = static_cast<std::uint16_t>(k.state_of_.size());
      k.state_of_.push_back(s);
    }
  }
  k.num_hot_ = static_cast<std::uint32_t>(k.state_of_.size());
  k.hot_depth_ = hot_depth;
  k.complete_ = k.num_hot_ == n;

  // --- byte classes ---------------------------------------------------------
  // A byte that labels no edge out of a hot state leads every hot state to
  // the root (the failure chain ends there with no edge either), so all
  // such bytes share class 0; every other byte gets a class of its own.
  std::array<bool, 256> labels{};
  std::uint32_t num_labels = 0;
  for (const StateIndex s : k.state_of_) {
    for (const CompressedAutomaton::Edge& e : automaton.edges(s)) {
      num_labels += labels[e.byte] ? 0 : 1;
      labels[e.byte] = true;
    }
  }
  std::uint32_t num_classes = num_labels == 256 ? 0 : 1;
  for (unsigned b = 0; b < 256; ++b) {
    if (labels[b]) k.class_of_[b] = static_cast<std::uint16_t>(num_classes++);
  }
  k.num_classes_ = num_classes;

  // --- hot transition table -------------------------------------------------
  // Row stride = classes rounded up to a power of two: the walk then forms
  // the row index with a shift+or instead of a multiply, which shortens the
  // load-to-load dependency chain by the multiplier's latency. The padding
  // columns are never indexed (byte classes are < num_classes).
  k.class_shift_ =
      num_classes > 1 ? static_cast<std::uint32_t>(std::bit_width(num_classes - 1))
                      : 0;
  k.table_.assign(static_cast<std::size_t>(k.num_hot_) << k.class_shift_,
                  kColdExit);
  // Rows in depth order, so a failure state's row (always shallower, so
  // always hot) is complete before any row copies it: delta(s, b) is s's
  // goto edge on b if it has one, else delta(fail(s), b). The root's
  // failure chain ends at itself: bytes without an edge stay at the root.
  const auto row_of = [&k](StateIndex s) {
    return &k.table_[static_cast<std::size_t>(k.hot_of_[s]) << k.class_shift_];
  };
  const StateIndex start = automaton.start_state();
  std::fill_n(row_of(start), num_classes, k.hot_of_[start]);
  for (std::uint32_t d = 0; d <= hot_depth; ++d) {
    for (const StateIndex s : k.state_of_) {
      if (automaton.depth(s) != d) continue;
      std::uint16_t* row = row_of(s);
      if (d > 0) std::copy_n(row_of(automaton.fail_link(s)), num_classes, row);
      for (const CompressedAutomaton::Edge& e : automaton.edges(s)) {
        row[k.class_of_[e.byte]] = k.hot_of_[e.target];  // kColdExit if cold
      }
    }
  }
  DPISVC_ASSERT_INVARIANT(k.hot_of_[start] != kColdExit,
                          "hot core must contain the start state");
  return k;
}

std::size_t HotKernel::memory_bytes() const noexcept {
  if (!available()) return 0;
  return table_.size() * sizeof(std::uint16_t) +
         hot_of_.size() * sizeof(std::uint16_t) +
         state_of_.size() * sizeof(StateIndex) + sizeof(class_of_);
}

HotKernel::Lane HotKernel::scan(BytesView data, StateIndex start_state,
                                std::vector<Match>& events) const {
  Lane lane;
  lane.data = data;
  lane.state = start_state;
  lane.events = &events;
  if (!available() || hot_of_[start_state] == kColdExit) return lane;

  const std::uint16_t* tbl = table_.data();
  const std::uint16_t* bc = class_of_.data();
  const StateIndex* state_of = state_of_.data();
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  const std::uint32_t sh = class_shift_;
  const std::uint32_t fa = hot_accepting_;
  std::uint32_t s = hot_of_[start_state];
  std::size_t i = 0;

  if (complete_) {
    // Complete core: no cold exits exist, so the walk drops the sentinel
    // compare and the per-byte position bookkeeping entirely — the loop is
    // instruction-bound once the table sits in L2, and those two saved ops
    // per byte are a direct throughput multiplier.
    while (i + kStride <= n) {
      const std::uint32_t c0 = bc[p[i]];
      const std::uint32_t c1 = bc[p[i + 1]];
      const std::uint32_t c2 = bc[p[i + 2]];
      const std::uint32_t c3 = bc[p[i + 3]];
      s = tbl[(s << sh) | c0];
      if (s < fa) events.push_back(Match{i + 1, state_of[s]});
      s = tbl[(s << sh) | c1];
      if (s < fa) events.push_back(Match{i + 2, state_of[s]});
      s = tbl[(s << sh) | c2];
      if (s < fa) events.push_back(Match{i + 3, state_of[s]});
      s = tbl[(s << sh) | c3];
      if (s < fa) events.push_back(Match{i + 4, state_of[s]});
      i += kStride;
    }
    while (i < n) {
      s = tbl[(s << sh) | bc[p[i]]];
      ++i;
      if (s < fa) events.push_back(Match{i, state_of[s]});
    }
    lane.consumed = n;
    lane.state = state_of[s];
    return lane;
  }

  // One transition; returns false on a cold exit (the byte stays
  // unconsumed: the caller re-resolves it with the automaton).
  const auto step = [&](std::uint32_t c) {
    const std::uint32_t t = tbl[(s << sh) | c];
    if (t == kColdExit) return false;
    s = t;
    ++i;
    if (t < fa) events.push_back(Match{i, state_of[t]});
    return true;
  };

  bool cold = false;
  // Stride walk: the stride's class lookups are issued before the dependent
  // transition chain so the (L1-resident) class loads never sit behind a
  // table miss.
  while (i + kStride <= n) {
    const std::uint32_t c0 = bc[p[i]];
    const std::uint32_t c1 = bc[p[i + 1]];
    const std::uint32_t c2 = bc[p[i + 2]];
    const std::uint32_t c3 = bc[p[i + 3]];
    if (!step(c0) || !step(c1) || !step(c2) || !step(c3)) {
      cold = true;
      break;
    }
  }
  if (!cold) {
    while (i < n && step(bc[p[i]])) {
    }
  }
  lane.consumed = i;
  lane.state = state_of[s];
  return lane;
}

void HotKernel::scan_interleaved(Lane* lanes, std::size_t num_lanes) const {
  DPISVC_ASSERT_INVARIANT(num_lanes <= kMaxInterleave,
                          "interleave width exceeds kMaxInterleave");
  // Lanes whose start state is cold (or an unavailable kernel) finish
  // immediately with consumed == 0; the caller steps the automaton. Lane
  // cursors live in dense local arrays for the whole walk — a lane's
  // pointer/position/state round-tripping through the Lane struct every
  // round would cost more than the round's four transitions.
  std::size_t idx[kMaxInterleave];
  std::uint32_t st[kMaxInterleave];
  const std::uint8_t* ptr[kMaxInterleave];
  std::size_t pos[kMaxInterleave];
  std::size_t len[kMaxInterleave];
  std::size_t active = 0;
  for (std::size_t k = 0; k < num_lanes; ++k) {
    lanes[k].consumed = 0;
    if (!available() || lanes[k].data.empty() ||
        hot_of_[lanes[k].state] == kColdExit) {
      continue;
    }
    st[active] = hot_of_[lanes[k].state];
    ptr[active] = lanes[k].data.data();
    pos[active] = 0;
    len[active] = lanes[k].data.size();
    idx[active] = k;
    ++active;
  }

  const std::uint16_t* tbl = table_.data();
  const std::uint16_t* bc = class_of_.data();
  const StateIndex* state_of = state_of_.data();
  const std::uint32_t sh = class_shift_;
  const std::uint32_t fa = hot_accepting_;
  const bool complete = complete_;

  // Lockstep rounds of kStride bytes per lane: the transition loads of
  // distinct lanes are data-independent, so one round keeps `active`
  // cache misses in flight instead of one.
  while (active > 0) {
    for (std::size_t j = 0; j < active;) {
      Lane& lane = lanes[idx[j]];
      const std::uint8_t* p = ptr[j];
      const std::size_t n = len[j];
      std::size_t i = pos[j];
      std::uint32_t s = st[j];
      bool done = false;

      if (complete && i + kStride <= n) {
        // Complete core: no cold exits, so the round is four bare
        // transitions (see the matching fast path in scan()). kStride
        // stays at 4 deliberately: an 8-byte round measured ~40% slower
        // here — eight dependent table loads per lane, times eight lanes,
        // overflow the out-of-order scheduler and the misses serialize.
        const std::uint32_t c0 = bc[p[i]];
        const std::uint32_t c1 = bc[p[i + 1]];
        const std::uint32_t c2 = bc[p[i + 2]];
        const std::uint32_t c3 = bc[p[i + 3]];
        s = tbl[(s << sh) | c0];
        if (s < fa) lane.events->push_back(Match{i + 1, state_of[s]});
        s = tbl[(s << sh) | c1];
        if (s < fa) lane.events->push_back(Match{i + 2, state_of[s]});
        s = tbl[(s << sh) | c2];
        if (s < fa) lane.events->push_back(Match{i + 3, state_of[s]});
        s = tbl[(s << sh) | c3];
        if (s < fa) lane.events->push_back(Match{i + 4, state_of[s]});
        pos[j] = i + kStride;
        st[j] = s;
        ++j;
        continue;
      }

      const auto step = [&](std::uint32_t c) {
        const std::uint32_t t = tbl[(s << sh) | c];
        if (t == kColdExit) return false;
        s = t;
        ++i;
        if (t < fa) lane.events->push_back(Match{i, state_of[t]});
        return true;
      };

      if (i + kStride <= n) {
        const std::uint32_t c0 = bc[p[i]];
        const std::uint32_t c1 = bc[p[i + 1]];
        const std::uint32_t c2 = bc[p[i + 2]];
        const std::uint32_t c3 = bc[p[i + 3]];
        done = !(step(c0) && step(c1) && step(c2) && step(c3));
      } else {
        while (i < n && step(bc[p[i]])) {
        }
        done = true;  // reached the end (or a cold exit in the tail)
      }

      pos[j] = i;
      st[j] = s;
      if (done) {
        // Retire the lane: write its final cursor back, then swap-with-last
        // to keep the active set dense.
        lane.consumed = i;
        lane.state = state_of[s];
        --active;
        idx[j] = idx[active];
        st[j] = st[active];
        ptr[j] = ptr[active];
        pos[j] = pos[active];
        len[j] = len[active];
      } else {
        ++j;
      }
    }
  }
}

}  // namespace dpisvc::ac
