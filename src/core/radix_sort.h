#ifndef WAVEMR_CORE_RADIX_SORT_H_
#define WAVEMR_CORE_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace wavemr {

/// Marks a key-only sort: RadixSortByKey(keys) carries no value column.
struct NoValues {};

/// Stable LSD radix sort of `keys`, applying the same permutation to
/// `*values` (same length) unless V is NoValues. One 8-bit digit per pass,
/// skipping passes above the highest set bit of any key (Zipf keys of a 2^17
/// domain take 3 passes, not 8) and passes where every key shares the digit.
/// Counting sort per digit is stable, so the composition is a stable sort by
/// the full key: the permutation std::stable_sort would produce.
template <typename V = NoValues>
void RadixSortByKey(std::vector<uint64_t>& keys,
                    std::vector<V>* values = nullptr) {
  constexpr bool kCarry = !std::is_same_v<V, NoValues>;
  const size_t n = keys.size();
  if (n < 2) return;
  uint64_t seen = 0;
  for (uint64_t k : keys) seen |= k;
  std::vector<uint64_t> key_scratch(n);
  std::vector<V> value_scratch(kCarry ? n : 0);
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if ((seen >> shift) == 0) break;  // no key has bits at or above shift
    size_t count[256] = {};
    const uint64_t* sk = keys.data();
    for (size_t i = 0; i < n; ++i) ++count[(sk[i] >> shift) & 0xFF];
    if (count[(sk[0] >> shift) & 0xFF] == n) continue;  // single digit
    size_t offsets[256];
    size_t total = 0;
    for (size_t d = 0; d < 256; ++d) {
      offsets[d] = total;
      total += count[d];
    }
    uint64_t* dk = key_scratch.data();
    if constexpr (kCarry) {
      const V* sv = values->data();
      V* dv = value_scratch.data();
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = offsets[(sk[i] >> shift) & 0xFF]++;
        dk[pos] = sk[i];
        dv[pos] = sv[i];
      }
      values->swap(value_scratch);
    } else {
      for (size_t i = 0; i < n; ++i) dk[offsets[(sk[i] >> shift) & 0xFF]++] = sk[i];
    }
    keys.swap(key_scratch);
  }
}

}  // namespace wavemr

#endif  // WAVEMR_CORE_RADIX_SORT_H_
