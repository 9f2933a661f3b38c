#include "sketch/group_count_sketch.h"

#include <algorithm>

#include "core/logging.h"
#include "core/simd.h"

namespace wavemr {

namespace {

constexpr uint64_t kPrime = PolyHash::kPrime;

// Degree-2/4 polynomials over GF(2^61 - 1) in the exact Horner order of
// PolyHash::Hash (shared with the SIMD scalar reference via core/hash.h),
// so values are bit-identical however they are computed.
inline uint64_t Hash2(const uint64_t c[2], uint64_t xr) {
  return PolyHash2(c, xr);
}

inline uint64_t Hash4(const uint64_t c[4], uint64_t xr) {
  return PolyHash4(c, xr);
}

void CopyCoeffs(const PolyHash& hash, uint64_t* out, size_t degree) {
  const std::vector<uint64_t>& coeffs = hash.coeffs();
  WAVEMR_CHECK_EQ(coeffs.size(), degree);
  std::copy(coeffs.begin(), coeffs.end(), out);
}

}  // namespace

GroupCountSketch::GroupCountSketch(uint64_t seed, size_t reps, size_t buckets,
                                   size_t subbuckets)
    : reps_(reps),
      buckets_(buckets),
      subbuckets_(subbuckets),
      seed_(seed),
      table_(reps * buckets * subbuckets, 0.0) {
  WAVEMR_CHECK_GE(reps, 1u);
  WAVEMR_CHECK_LE(reps, kMaxReps);
  WAVEMR_CHECK_GE(buckets, 1u);
  WAVEMR_CHECK_GE(subbuckets, 1u);
  rep_hash_.resize(reps);
  for (size_t r = 0; r < reps; ++r) {
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 1)), 2), rep_hash_[r].g, 2);
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 2)), 2), rep_hash_[r].i, 2);
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 3)), 4), rep_hash_[r].s, 4);
  }
  // Lane-major coefficient copy for the 4-wide query kernels, padded with
  // the last rep so a partial final chunk still reads valid coefficients.
  const size_t padded = (reps + 3) & ~size_t{3};
  lanes_.g0.resize(padded);
  lanes_.g1.resize(padded);
  lanes_.i0.resize(padded);
  lanes_.i1.resize(padded);
  lanes_.s0.resize(padded);
  lanes_.s1.resize(padded);
  lanes_.s2.resize(padded);
  lanes_.s3.resize(padded);
  for (size_t r = 0; r < padded; ++r) {
    const RepHash& h = rep_hash_[std::min(r, reps - 1)];
    lanes_.g0[r] = h.g[0];
    lanes_.g1[r] = h.g[1];
    lanes_.i0[r] = h.i[0];
    lanes_.i1[r] = h.i[1];
    lanes_.s0[r] = h.s[0];
    lanes_.s1[r] = h.s[1];
    lanes_.s2[r] = h.s[2];
    lanes_.s3[r] = h.s[3];
  }
}

void GroupCountSketch::Update(uint64_t group, uint64_t item, double value) {
  const uint64_t gr = group % kPrime;
  const uint64_t ir = item % kPrime;
  const size_t row_stride = buckets_ * subbuckets_;
  double* rep_row = table_.data();
  for (size_t r = 0; r < reps_; ++r, rep_row += row_stride) {
    const RepHash& h = rep_hash_[r];
    double* cell = rep_row + (Hash2(h.g, gr) % buckets_) * subbuckets_ +
                   Hash2(h.i, ir) % subbuckets_;
    *cell += (Hash4(h.s, ir) & 1) ? value : -value;
  }
}

template <bool kPow2Sub>
void GroupCountSketch::UpdateBatchImpl(const uint64_t* items, const double* values,
                                       size_t n, uint32_t group_shift) {
  // Blocked rep-outer loop: within a block each repetition's hash
  // coefficients stay in registers and the group bucket is reused across
  // runs of items sharing a dyadic group, while the block bound keeps the
  // item/value stream L1-resident across the `reps` passes. Per-cell add
  // order equals the scalar loop's (items in order within each rep), so
  // results are bit-identical to calling Update n times. The sub-bucket
  // reduction -- one per counter touch, the single hottest op in
  // Send-Sketch -- compiles to a mask when subbuckets is a power of two
  // (the default) instead of a runtime 64-bit division.
  constexpr size_t kBlock = 256;
  WAVEMR_DCHECK(subbuckets_ >= 1);
  // The mask form of the sub-bucket reduction only exists for power-of-two
  // widths; keep it visibly dead (zero) otherwise.
  const uint64_t sub_mask = kPow2Sub ? subbuckets_ - 1 : 0;
  const size_t row_stride = buckets_ * subbuckets_;
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t end = std::min(n, base + kBlock);
    double* rep_row = table_.data();
    for (size_t r = 0; r < reps_; ++r, rep_row += row_stride) {
      const RepHash h = rep_hash_[r];
      uint64_t cached_group = ~uint64_t{0};
      double* row = nullptr;
      for (size_t k = base; k < end; ++k) {
        const uint64_t item = items[k];
        const uint64_t group = group_shift >= 64 ? 0 : item >> group_shift;
        if (group != cached_group || row == nullptr) {
          cached_group = group;
          row = rep_row + (Hash2(h.g, group % kPrime) % buckets_) * subbuckets_;
        }
        const uint64_t ir = item % kPrime;
        const uint64_t ih = Hash2(h.i, ir);
        const uint64_t sub = kPow2Sub ? (ih & sub_mask) : (ih % subbuckets_);
        const double value = values[k];
        row[sub] += (Hash4(h.s, ir) & 1) ? value : -value;
      }
    }
  }
}

void GroupCountSketch::UpdateBatch(const uint64_t* items, const double* values,
                                   size_t n, uint32_t group_shift) {
  const SimdKernels& k = SimdK();
  if (k.tier != SimdTier::kScalar && subbuckets_ <= (uint64_t{1} << 30)) {
    UpdateBatchSimd(k, items, values, n, group_shift);
    return;
  }
  if ((subbuckets_ & (subbuckets_ - 1)) == 0) {
    UpdateBatchImpl<true>(items, values, n, group_shift);
  } else {
    UpdateBatchImpl<false>(items, values, n, group_shift);
  }
}

void GroupCountSketch::UpdateBatchSimd(const SimdKernels& k,
                                       const uint64_t* items,
                                       const double* values, size_t n,
                                       uint32_t group_shift) {
  // Same blocked rep-outer shape as UpdateBatchImpl, split into two passes
  // per (block, rep): pass 1 resolves every item's packed (sign, sub-bucket)
  // slot with ONE gcs_sub_sign_block call, and pass 2 applies the adds in
  // the original item order with the cached group row. One indirect call
  // per (block, rep) is what makes the vector tier pay off: at 4-lane
  // granularity the uninlinable dispatch call costs more than the vector
  // hash saves. Hash values are integers and the kernel is exact, so pass 2
  // touches the same cells with the same values in the same order as the
  // scalar loop: the table stays bit-identical.
  constexpr size_t kBlock = 256;
  WAVEMR_DCHECK(subbuckets_ >= 1);
  const bool pow2 = (subbuckets_ & (subbuckets_ - 1)) == 0;
  const uint64_t sub_mask = pow2 ? subbuckets_ - 1 : 0;
  const size_t row_stride = buckets_ * subbuckets_;
  uint32_t packed[kBlock];
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t end = std::min(n, base + kBlock);
    double* rep_row = table_.data();
    for (size_t r = 0; r < reps_; ++r, rep_row += row_stride) {
      const RepHash h = rep_hash_[r];
      // Pass 1: pack (sign, sub) per item.
      k.gcs_sub_sign_block(h.i, h.s, items + base, end - base, subbuckets_,
                           sub_mask, packed);
      // Pass 2: apply in input order with the group row cached across runs.
      uint64_t cached_group = ~uint64_t{0};
      double* row = nullptr;
      for (size_t i = base; i < end; ++i) {
        const uint64_t item = items[i];
        const uint64_t group = group_shift >= 64 ? 0 : item >> group_shift;
        if (group != cached_group || row == nullptr) {
          cached_group = group;
          row = rep_row + (Hash2(h.g, group % kPrime) % buckets_) * subbuckets_;
        }
        const uint32_t slot = packed[i - base];
        const double value = values[i];
        row[slot & 0x7FFFFFFFu] += (slot >> 31) != 0 ? value : -value;
      }
    }
  }
}

double GroupCountSketch::GroupEnergy(uint64_t group) const {
  // Group hashes run 4 repetitions per vector lane-group; the per-bucket
  // sum of squares goes through the dispatch kernel, whose fixed
  // accumulation order is identical in every tier (core/simd.h), so the
  // estimate is the same bit pattern whatever tier is active.
  const SimdKernels& k = SimdK();
  double est[kMaxReps];
  uint64_t hg[kMaxReps];
  const uint64_t gr = group % kPrime;
  const uint64_t xg[4] = {gr, gr, gr, gr};
  for (size_t r0 = 0; r0 < reps_; r0 += 4) {
    k.hash2_x4(&lanes_.g0[r0], &lanes_.g1[r0], xg, &hg[r0]);
  }
  for (size_t r = 0; r < reps_; ++r) {
    const size_t bucket = hg[r] % buckets_;
    const double* cell = &table_[(r * buckets_ + bucket) * subbuckets_];
    est[r] = k.sum_squares(cell, subbuckets_);
  }
  std::nth_element(est, est + reps_ / 2, est + reps_);
  return est[reps_ / 2];
}

double GroupCountSketch::EstimateItem(uint64_t group, uint64_t item) const {
  // All three hash families run 4 repetitions per vector lane-group (the
  // coefficient lanes were transposed at construction); the gathers and the
  // median stay scalar. Hash values are exact, so estimates are bit-equal
  // to the per-rep scalar loop in every tier.
  const SimdKernels& k = SimdK();
  double est[kMaxReps];
  uint64_t hg[kMaxReps], hi[kMaxReps], hs[kMaxReps];
  const uint64_t gr = group % kPrime;
  const uint64_t ir = item % kPrime;
  const uint64_t xg[4] = {gr, gr, gr, gr};
  const uint64_t xi[4] = {ir, ir, ir, ir};
  for (size_t r0 = 0; r0 < reps_; r0 += 4) {
    k.hash2_x4(&lanes_.g0[r0], &lanes_.g1[r0], xg, &hg[r0]);
    k.hash2_x4(&lanes_.i0[r0], &lanes_.i1[r0], xi, &hi[r0]);
    k.hash4_x4(&lanes_.s0[r0], &lanes_.s1[r0], &lanes_.s2[r0], &lanes_.s3[r0],
               xi, &hs[r0]);
  }
  for (size_t r = 0; r < reps_; ++r) {
    const double cell = table_[(r * buckets_ + hg[r] % buckets_) * subbuckets_ +
                               hi[r] % subbuckets_];
    est[r] = (hs[r] & 1) ? cell : -cell;
  }
  std::nth_element(est, est + reps_ / 2, est + reps_);
  return est[reps_ / 2];
}

void GroupCountSketch::Merge(const GroupCountSketch& other) {
  // Structural assertions up front (equal table sizes do NOT imply equal
  // geometry -- 2x8x4 and 4x4x4 tables are both 64 cells), then one tight
  // pointer loop over the counters.
  WAVEMR_CHECK_EQ(seed_, other.seed_);
  WAVEMR_CHECK_EQ(reps_, other.reps_);
  WAVEMR_CHECK_EQ(buckets_, other.buckets_);
  WAVEMR_CHECK_EQ(subbuckets_, other.subbuckets_);
  const double* src = other.table_.data();
  double* dst = table_.data();
  const size_t n = table_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

uint64_t GroupCountSketch::NonzeroCounters() const {
  uint64_t n = 0;
  for (double v : table_) n += (v != 0.0) ? 1 : 0;
  return n;
}

}  // namespace wavemr
