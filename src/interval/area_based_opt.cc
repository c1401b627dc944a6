#include "interval/area_based_opt.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "interval/area_based.h"
#include "interval/kernel.h"
#include "interval/prune.h"
#include "interval/shard.h"
#include "interval/walk.h"

namespace conservation::interval {

namespace {

struct EvalBuffers {
  std::vector<double> conf;
  std::vector<uint8_t> valid;
};

// Confidence-evaluates a completed breakpoint list for the kernel's current
// anchor and returns the longest qualifying endpoint (0 if none) with its
// confidence. Shared by the per-anchor scalar walk and the batched walk
// scheduler, so retirement cannot drift from the reference semantics.
std::pair<int64_t, double> EvaluateBreakpoints(
    const internal::ConfidenceKernel& kernel,
    const std::vector<int64_t>& breakpoints, const GeneratorOptions& options,
    EvalBuffers* buf, uint64_t* tested, uint64_t* batches) {
  int64_t best_j = 0;
  double best_conf = 0.0;
  const int64_t count = static_cast<int64_t>(breakpoints.size());
  buf->conf.resize(breakpoints.size());
  buf->valid.resize(breakpoints.size());
  if (options.largest_first_early_exit) {
    // Longest-first: the first qualifying breakpoint subsumes the rest.
    // Probe in reverse blocks; lanes past the first qualifying one are
    // speculative and uncounted, so `tested` matches the scalar scan
    // (probes up to and including the winner).
    constexpr int64_t kProbeBlock = 16;
    bool found = false;
    for (int64_t end = count; end > 0 && !found;) {
      const int64_t begin = std::max<int64_t>(0, end - kProbeBlock);
      kernel.ConfidenceIndexBatch(breakpoints.data() + begin, end - begin,
                                  buf->conf.data(), buf->valid.data());
      ++*batches;
      for (int64_t k = end; k-- > begin;) {
        ++*tested;
        if (buf->valid[k - begin] &&
            PassesRelaxedThreshold(buf->conf[k - begin], options)) {
          best_j = breakpoints[static_cast<size_t>(k)];
          best_conf = buf->conf[k - begin];
          found = true;
          break;
        }
      }
      end = begin;
    }
  } else {
    kernel.ConfidenceIndexBatch(breakpoints.data(), count, buf->conf.data(),
                                buf->valid.data());
    ++*batches;
    *tested += static_cast<uint64_t>(count);
    for (int64_t k = 0; k < count; ++k) {
      const int64_t j = breakpoints[static_cast<size_t>(k)];
      if (buf->valid[k] && PassesRelaxedThreshold(buf->conf[k], options) &&
          j > best_j) {
        best_j = j;
        best_conf = buf->conf[k];
      }
    }
  }
  return {best_j, best_conf};
}

}  // namespace

std::vector<Candidate> AreaBasedOptGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const core::TableauType type = options.type;
  const double delta = ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;

  // See AreaBasedGenerator: credit-model fail tableaux additionally probe
  // length-geometric endpoints inside the zero-area prefix, where the
  // credit confidence is nonzero and non-monotone.
  const bool credit_fail = type == core::TableauType::kFail &&
                           eval.model() == core::ConfidenceModel::kCredit;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail ? internal::ZeroPrefixLengths(n, growth)
                  : std::vector<int64_t>();

  // Width of the cross-anchor walk scheduler. stop_on_full_cover needs the
  // scalar loop's mid-chunk early break (walks retire out of anchor order),
  // and width 1 has no cross-walk parallelism to harvest, so both take the
  // per-anchor reference path below.
  const int walk_width =
      internal::ResolveWalkWidth(options, internal::ActiveSimdBackend());
  const bool use_walks = walk_width > 1 && !options.stop_on_full_cover;

  // Sketch anchor screen (relaxed threshold), shared read-only by every
  // chunk. AB-opt anchors are stateless, so both execution paths below
  // simply never start work for a pruned anchor.
  const internal::ScopedSketchScreen scoped(
      eval, options, internal::SketchScreen::Anchor::kLeft, /*relaxed=*/true);
  const internal::SketchScreen* screen = scoped.get();

  // AB-opt carries no cross-anchor state (each anchor's breakpoints come
  // from fresh binary searches), so anchor chunks parallelize directly.
  // Inner sweeps run on the flat-array kernel (interval/kernel.h).
  auto block = [&, n, delta, growth](int64_t i_begin, int64_t i_end,
                                     GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, type);
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    uint64_t tested = 0;
    uint64_t probes = 0;
    uint64_t batches = 0;
    uint64_t pruned = 0;
    uint64_t sketch_blocks = 0;
    EvalBuffers buf;

    if (use_walks) {
      // Cross-anchor batched execution: keep up to walk_width resumable
      // walks (interval/walk.h) in flight, their binary-search registers
      // parked in SoA lane buffers, and advance every lane per round with
      // one branchless SparseWalkRound kernel step. Per-walk scalar code
      // runs only when a lane's search completes (~once per log n rounds).
      // Each walk follows the reference probe sequence exactly, so
      // candidates and counters match the scalar loop bit for bit.
      const internal::AbOptWalkContext ctx{n,           delta,
                                           growth,      credit_fail,
                                           &zero_prefix_lengths, kernel.sp()};
      const int64_t span = i_end - i_begin + 1;
      const int width = static_cast<int>(
          std::min<int64_t>(static_cast<int64_t>(walk_width), span));
      internal::WalkLaneBuffers lanes(width);
      std::vector<internal::AbOptWalkState> walks(
          static_cast<size_t>(width));
      // Walks retire out of anchor order; park results in per-anchor slots
      // and emit in anchor order afterwards.
      std::vector<int64_t> slot_j(static_cast<size_t>(span), 0);
      std::vector<double> slot_conf(static_cast<size_t>(span), 0.0);
      // The round kernel reports completions as a 64-bit mask, so a round
      // advances the lanes in banks of kMaxRoundLanes.
      constexpr int kBankLanes = internal::kMaxRoundLanes;
      constexpr int kNumBanks =
          (internal::kMaxWalkWidth + kBankLanes - 1) / kBankLanes;
      internal::WalkRoundArgs bank_args[kNumBanks];
      for (int b = 0; b * kBankLanes < width; ++b) {
        bank_args[b] = lanes.RoundArgs(b * kBankLanes);
      }
      uint64_t done_mask[kNumBanks] = {0};
      int64_t frontier = i_begin;
      int active = 0;
      uint64_t rounds = 0;
      uint64_t lanes_occupied = 0;
      uint64_t walks_started = 0;
      for (;;) {
        // Refill retired lanes from the anchor frontier. A freshly begun
        // walk is always mid-search ([i, n] is never empty), so every
        // active lane participates in the round below.
        while (active < width && frontier <= i_end) {
          if (screen != nullptr &&
              !screen->MayEmit(frontier, &sketch_blocks)) {
            ++pruned;
            ++frontier;
            continue;  // pruned anchor: no walk, no slot write (stays 0)
          }
          internal::AbOptWalkState& walk =
              walks[static_cast<size_t>(active)];
          walk.Begin(frontier, ctx);
          kernel.BeginAnchor(frontier);
          lanes.i[static_cast<size_t>(active)] = frontier;
          lanes.sp_prev[static_cast<size_t>(active)] = kernel.sp_prev();
          lanes.h_sp[static_cast<size_t>(active)] = kernel.h_sp();
          walk.StoreRegs(&lanes, active);
          ++walks_started;
          ++frontier;
          ++active;
        }
        if (active == 0) break;

        for (int b = 0; b * kBankLanes < active; ++b) {
          const int bank_n = std::min(kBankLanes, active - b * kBankLanes);
          done_mask[b] = kernel.SparseWalkRound(bank_args[b], bank_n);
        }
        ++rounds;
        lanes_occupied += static_cast<uint64_t>(active);

        // Pull back only the lanes whose search completed, highest lane
        // first: a retiring walk's slot is refilled from the last active
        // lane, and descending order guarantees that lane has no pending
        // completion bit of its own (it would have been processed first),
        // so no bit ever needs to move.
        for (int b = (active - 1) / kBankLanes; b >= 0; --b) {
          while (done_mask[b] != 0) {
            const int bit = 63 - std::countl_zero(done_mask[b]);
            done_mask[b] &= ~(uint64_t{1} << bit);
            const int k = b * kBankLanes + bit;
            internal::AbOptWalkState& walk = walks[static_cast<size_t>(k)];
            if (!walk.CompleteSearch(&lanes, k, ctx)) continue;
            kernel.BeginAnchor(walk.anchor());
            const auto [best_j, best_conf] = EvaluateBreakpoints(
                kernel, walk.breakpoints(), options, &buf, &tested,
                &batches);
            const size_t slot = static_cast<size_t>(walk.anchor() - i_begin);
            slot_j[slot] = best_j;
            slot_conf[slot] = best_conf;
            --active;
            if (k != active) {
              std::swap(walks[static_cast<size_t>(k)],
                        walks[static_cast<size_t>(active)]);
              lanes.MoveLane(k, active);
            }
          }
        }
      }
      for (int64_t i = i_begin; i <= i_end; ++i) {
        const size_t slot = static_cast<size_t>(i - i_begin);
        if (slot_j[slot] >= i) {
          out.push_back(Candidate{Interval{i, slot_j[slot]}, slot_conf[slot]});
        }
      }
      // One counted probe per occupied lane per round, and one kernel
      // batch per round (folded out of the hot loop).
      probes += lanes_occupied;
      batches += rounds;
      chunk_stats->walks = walks_started;
      chunk_stats->walk_rounds = rounds;
      chunk_stats->walk_lanes = lanes_occupied;
      chunk_stats->walk_lane_slots = rounds * static_cast<uint64_t>(width);
    } else {
      std::vector<int64_t> breakpoints;
      for (int64_t i = i_begin; i <= i_end; ++i) {
        if (screen != nullptr && !screen->MayEmit(i, &sketch_blocks)) {
          ++pruned;
          continue;
        }
        kernel.BeginAnchor(i);
        breakpoints.clear();

        if (credit_fail) {
          const int64_t zero_area_end =
              internal::LargestEndpointWithin(kernel, i, n, 0.0, &probes);
          for (const int64_t len : zero_prefix_lengths) {
            const int64_t j = i + len - 1;
            if (j >= zero_area_end) break;  // zero_area_end is a breakpoint
            breakpoints.push_back(j);
          }
          if (zero_area_end >= i) breakpoints.push_back(zero_area_end);
        }

        // Initial area breakpoint: the largest j whose area is within the
        // base unit Delta; if even [i, i] exceeds it, start at i (forced).
        // For fail tableaux this also covers the zero-area (confidence 0)
        // special case, since the zero-area prefix lies below Delta.
        int64_t cur =
            internal::LargestEndpointWithin(kernel, i, n, delta, &probes);
        if (cur < i) cur = i;
        if (breakpoints.empty() || breakpoints.back() < cur) {
          breakpoints.push_back(cur);
        }

        while (cur < n) {
          const double cur_area = kernel.SparseArea(cur);
          const double target = std::max(cur_area, delta) * growth;
          int64_t next = internal::LargestEndpointWithin(kernel, cur + 1, n,
                                                         target, &probes);
          if (next < cur + 1) next = cur + 1;  // forced advance
          breakpoints.push_back(next);
          cur = next;
        }

        const auto [best_j, best_conf] = EvaluateBreakpoints(
            kernel, breakpoints, options, &buf, &tested, &batches);
        if (best_j >= i) {
          out.push_back(Candidate{Interval{i, best_j}, best_conf});
          if (options.stop_on_full_cover && i == 1 && best_j == n) break;
        }
      }
    }

    chunk_stats->intervals_tested = tested;
    chunk_stats->endpoint_steps = probes;
    chunk_stats->batches = batches;
    chunk_stats->anchors_pruned = pruned;
    chunk_stats->sketch_blocks = sketch_blocks;
    return out;
  };

  auto result = internal::RunSharded(n, options, stats, block);
  if (stats != nullptr) stats->sketch_blocks += scoped.construction_blocks();
  return result;
}

}  // namespace conservation::interval
