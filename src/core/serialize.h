#ifndef WAVEMR_CORE_SERIALIZE_H_
#define WAVEMR_CORE_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/logging.h"

namespace wavemr {

/// Minimal little-endian POD serialization used for split state files and
/// the distributed cache. Fixed-width only; no varints -- sizes here feed the
/// communication accounting, so they must be predictable.
class Serializer {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    std::memcpy(buf_.data() + off, &v, sizeof(T));
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    Put<uint64_t>(v.size());
    PutArray(v);
  }

  /// The elements of `v` with no length prefix: the reader already knows
  /// the count and passes it to Deserializer::GetArray.
  template <typename T>
  void PutArray(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t off = buf_.size();
    buf_.resize(off + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(buf_.data() + off, v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed (uint64) byte string.
  void PutString(const std::string& s) {
    Put<uint64_t>(s.size());
    buf_.append(s);
  }

  const std::string& str() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Deserializer {
 public:
  explicit Deserializer(std::string_view buf) : buf_(buf) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    WAVEMR_CHECK_LE(pos_ + sizeof(T), buf_.size());
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> GetVector() {
    return GetArray<T>(Get<uint64_t>());
  }

  /// Inverse of Serializer::PutArray: `n` elements, no length prefix.
  template <typename T>
  std::vector<T> GetArray(uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    WAVEMR_CHECK_LE(n, remaining() / sizeof(T));  // n * sizeof(T) could wrap
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Inverse of Serializer::PutString.
  std::string GetString() {
    uint64_t n = Get<uint64_t>();
    WAVEMR_CHECK_LE(n, remaining());
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool Done() const { return pos_ == buf_.size(); }

  /// Bytes left to consume. Get/GetVector CHECK-abort past the end, so
  /// callers parsing untrusted bytes (snapshot files, wire frames) validate
  /// against remaining() first and return Status instead of crashing.
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

}  // namespace wavemr

#endif  // WAVEMR_CORE_SERIALIZE_H_
