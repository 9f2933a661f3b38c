#include "sketch/wavelet_gcs.h"

#include <algorithm>
#include <cmath>

#include "core/bitops.h"
#include "core/logging.h"
#include "wavelet/topk.h"

namespace wavemr {

WaveletGcs::WaveletGcs(uint64_t u, const WaveletGcsOptions& options)
    : u_(u), degree_bits_(options.degree_bits) {
  WAVEMR_CHECK(IsPowerOfTwo(u));
  WAVEMR_CHECK_GE(options.degree_bits, 1u);
  const uint32_t bits = Log2Floor(u);
  WAVEMR_CHECK_LE(bits, kMaxTreeDepth);
  // Levels 0..L, where the root level has at most 2^degree_bits groups.
  size_t num_levels = 1;
  while (bits > degree_bits_ * (num_levels - 1) + degree_bits_) ++num_levels;
  ++num_levels;  // include the singleton level 0 and the root

  uint64_t total_bytes = options.total_bytes;
  if (total_bytes == 0) total_bytes = 20480ull * bits;  // paper's 20KB*log2(u)
  uint64_t per_level_bytes = std::max<uint64_t>(total_bytes / num_levels, 64);

  for (size_t l = 0; l < num_levels; ++l) {
    size_t counters = per_level_bytes / sizeof(double);
    size_t buckets =
        std::max<size_t>(1, counters / (options.reps * options.subbuckets));
    level_offsets_.push_back(l == 0 ? 0
                                    : level_offsets_.back() +
                                          levels_.back().NumCounters());
    levels_.emplace_back(Mix64(options.seed ^ (l + 17)), options.reps, buckets,
                         options.subbuckets);
  }
}

uint64_t WaveletGcs::NumGroupsAtLevel(size_t level) const {
  uint64_t shift = degree_bits_ * level;
  if (shift >= 64) return 1;
  return std::max<uint64_t>(1, CeilDiv(u_, uint64_t{1} << shift));
}

void WaveletGcs::UpdateData(uint64_t x, double count) {
  const uint32_t bits = Log2Floor(u_);
  // The error-tree path of x: the average coefficient plus one detail
  // coefficient per level, in ascending index order, built on the stack.
  WCoeff path[kMaxTreeDepth + 1];
  WAVEMR_DCHECK(bits <= kMaxTreeDepth);
  path[0] = {0, count / std::sqrt(static_cast<double>(u_))};
  for (uint32_t j = 0; j < bits; ++j) {
    uint64_t block = u_ >> j;
    uint64_t k = x / block;
    uint64_t offset = x - k * block;
    double mag = count / std::sqrt(static_cast<double>(block));
    path[j + 1] = {(uint64_t{1} << j) + k, (offset < block / 2) ? -mag : mag};
  }
  UpdateCoeffs({path, bits + 1});
}

void WaveletGcs::UpdateCoeffs(std::span<const WCoeff> coeffs) {
  // Index and value columns a stack chunk at a time (UpdateBatch's block
  // size), so the coefficient vector is never copied whole. Each level then
  // walks the chunk with its per-repetition hashes in registers and the
  // group bucket reused across indices that share a dyadic group.
  constexpr size_t kChunk = 256;
  uint64_t indices[kChunk];
  double deltas[kChunk];
  for (size_t base = 0; base < coeffs.size(); base += kChunk) {
    const size_t n = std::min(kChunk, coeffs.size() - base);
    for (size_t i = 0; i < n; ++i) {
      indices[i] = coeffs[base + i].index;
      deltas[i] = coeffs[base + i].value;
    }
    for (size_t l = 0; l < levels_.size(); ++l) {
      levels_[l].UpdateBatch(indices, deltas, n,
                             static_cast<uint32_t>(degree_bits_) *
                                 static_cast<uint32_t>(l));
    }
  }
}

double WaveletGcs::EstimateCoeff(uint64_t index) const {
  return levels_[0].EstimateItem(index, index);
}

double WaveletGcs::EstimateEnergy() const {
  const size_t root = levels_.size() - 1;
  uint64_t groups = NumGroupsAtLevel(root);
  double energy = 0.0;
  for (uint64_t g = 0; g < groups; ++g) energy += levels_[root].GroupEnergy(g);
  return energy;
}

std::vector<WCoeff> WaveletGcs::FindTopK(size_t k, size_t max_candidates) const {
  const size_t root = levels_.size() - 1;
  const double energy = EstimateEnergy();
  // Noise floor of a singleton energy query: a random level-0 bucket carries
  // ~energy/buckets of colliding mass, so thresholds below ~2x that admit
  // indistinguishable-from-noise candidates whose value estimates would
  // *add* error. When the sketch is too small to resolve k coefficients we
  // return fewer -- strictly better for SSE than returning noise.
  const double floor =
      2.0 * energy / static_cast<double>(levels_[0].buckets());
  double threshold = energy / (2.0 * static_cast<double>(std::max<size_t>(k, 1)));
  if (threshold < floor) threshold = floor;

  std::vector<uint64_t> candidates;
  for (int attempt = 0; attempt < 40; ++attempt) {
    candidates.clear();
    // Descend from the root, expanding groups whose energy clears the
    // threshold.
    std::vector<uint64_t> frontier;
    uint64_t root_groups = NumGroupsAtLevel(root);
    for (uint64_t g = 0; g < root_groups; ++g) {
      if (levels_[root].GroupEnergy(g) >= threshold) frontier.push_back(g);
    }
    bool overflow = false;
    for (size_t l = root; l-- > 0 && !overflow;) {
      std::vector<uint64_t> next;
      uint64_t groups_at_l = NumGroupsAtLevel(l);
      for (uint64_t g : frontier) {
        uint64_t first_child = g << degree_bits_;
        uint64_t fanout = uint64_t{1} << degree_bits_;
        for (uint64_t c = 0; c < fanout; ++c) {
          uint64_t child = first_child + c;
          if (child >= groups_at_l) break;
          if (levels_[l].GroupEnergy(child) >= threshold) next.push_back(child);
        }
        if (next.size() > max_candidates) {
          overflow = true;
          break;
        }
      }
      frontier = std::move(next);
    }
    if (!overflow) candidates = std::move(frontier);

    if (overflow) break;  // keep the last non-overflowing candidate set
    if (candidates.size() >= k || threshold <= floor) break;
    threshold = std::max(threshold / 2.0, floor);
  }

  std::vector<WCoeff> estimates;
  estimates.reserve(candidates.size());
  for (uint64_t idx : candidates) {
    if (idx >= u_) continue;
    estimates.push_back({idx, EstimateCoeff(idx)});
  }
  return TopKByMagnitude(std::move(estimates), k);
}

void WaveletGcs::Merge(const WaveletGcs& other) {
  WAVEMR_CHECK_EQ(u_, other.u_);
  WAVEMR_CHECK_EQ(levels_.size(), other.levels_.size());
  for (size_t l = 0; l < levels_.size(); ++l) levels_[l].Merge(other.levels_[l]);
}

uint64_t WaveletGcs::CounterUpdatesPerDataPoint() const {
  // log2(u)+1 coefficients per point, each updated in every level, in every
  // repetition.
  return static_cast<uint64_t>(Log2Floor(u_) + 1) * levels_.size() *
         levels_[0].reps();
}

size_t WaveletGcs::NumCounters() const {
  return level_offsets_.back() + levels_.back().NumCounters();
}

uint64_t WaveletGcs::NonzeroCounters() const {
  uint64_t n = 0;
  for (const GroupCountSketch& s : levels_) n += s.NonzeroCounters();
  return n;
}

void WaveletGcs::ForEachNonzeroCounter(
    const std::function<void(uint64_t, double)>& fn) const {
  for (size_t l = 0; l < levels_.size(); ++l) {
    for (size_t i = 0; i < levels_[l].NumCounters(); ++i) {
      double v = levels_[l].CounterAt(i);
      if (v != 0.0) fn(level_offsets_[l] + i, v);
    }
  }
}

void WaveletGcs::AddToFlatCounter(uint64_t flat_index, double delta) {
  // Locate the owning level via the offsets.
  size_t l = levels_.size() - 1;
  while (flat_index < level_offsets_[l]) --l;
  levels_[l].AddToCounter(flat_index - level_offsets_[l], delta);
}

}  // namespace wavemr
