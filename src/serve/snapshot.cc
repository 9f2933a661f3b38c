#include "serve/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/bitops.h"
#include "core/crc32c.h"
#include "core/failpoint.h"
#include "core/logging.h"
#include "histogram/algorithm.h"

namespace wavemr {

namespace {

/// "WMSNAP" + 2-digit format version, little-endian packed. Version 02
/// appended the CRC32C trailer; 01 files (no checksum) are rejected with a
/// rebuild hint rather than trusted.
constexpr uint64_t kSnapshotMagicV1 = 0x3130'50414E534D57ull;  // "WMSNAP01"
constexpr uint64_t kSnapshotMagic = 0x3230'50414E534D57ull;    // "WMSNAP02"

std::string Hex32(uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::FromCoefficients(uint64_t u,
                                                      std::vector<WCoeff> coeffs,
                                                      Metadata metadata) {
  WAVEMR_CHECK(IsPowerOfTwo(u)) << "domain size must be a power of two, got " << u;
  std::sort(coeffs.begin(), coeffs.end(),
            [](const WCoeff& a, const WCoeff& b) { return a.index < b.index; });
  HistogramSnapshot s;
  s.u_ = u;
  s.meta_ = std::move(metadata);
  s.indices_.reserve(coeffs.size());
  s.values_.reserve(coeffs.size());
  for (const WCoeff& c : coeffs) {
    WAVEMR_CHECK_LT(c.index, u);
    s.indices_.push_back(c.index);
    s.values_.push_back(c.value);
  }
  s.BuildIndexes();
  return s;
}

HistogramSnapshot HistogramSnapshot::FromHistogram(
    const WaveletHistogram& histogram, Metadata metadata) {
  return FromCoefficients(histogram.domain_size(), histogram.coefficients(),
                          std::move(metadata));
}

uint32_t HistogramSnapshot::num_levels() const { return Log2Floor(u_); }

void HistogramSnapshot::BuildIndexes() {
  for (size_t i = 1; i < indices_.size(); ++i) {
    WAVEMR_CHECK_LT(indices_[i - 1], indices_[i])
        << "coefficient indices must be unique";
  }
  const uint32_t levels = num_levels();
  level_offsets_.assign(levels + 2, 0);
  size_t pos = 0;
  for (uint32_t l = 0; l <= levels; ++l) {
    const uint64_t bound = uint64_t{1} << l;  // first index of detail level l
    while (pos < indices_.size() && indices_[pos] < bound) ++pos;
    level_offsets_[l + 1] = pos;
  }
  WAVEMR_CHECK_EQ(level_offsets_[levels + 1], indices_.size());

  magnitude_order_.resize(indices_.size());
  for (size_t i = 0; i < magnitude_order_.size(); ++i) {
    magnitude_order_[i] = static_cast<uint32_t>(i);
  }
  std::sort(magnitude_order_.begin(), magnitude_order_.end(),
            [this](uint32_t a, uint32_t b) {
              double ma = std::fabs(values_[a]);
              double mb = std::fabs(values_[b]);
              if (ma != mb) return ma > mb;
              return indices_[a] < indices_[b];
            });
}

std::pair<size_t, size_t> HistogramSnapshot::LevelRange(uint32_t level) const {
  WAVEMR_CHECK_LT(level, num_levels());
  return {level_offsets_[level + 1], level_offsets_[level + 2]};
}

size_t HistogramSnapshot::FindIndex(uint64_t index) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return npos;
  return static_cast<size_t>(it - indices_.begin());
}

std::vector<WCoeff> HistogramSnapshot::TopCoefficients(size_t count) const {
  count = std::min(count, magnitude_order_.size());
  std::vector<WCoeff> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t pos = magnitude_order_[i];
    out.push_back(WCoeff{indices_[pos], values_[pos]});
  }
  return out;
}

std::vector<WCoeff> HistogramSnapshot::Coefficients() const {
  std::vector<WCoeff> out;
  out.reserve(indices_.size());
  for (size_t i = 0; i < indices_.size(); ++i) {
    out.push_back(WCoeff{indices_[i], values_[i]});
  }
  return out;
}

void HistogramSnapshot::SerializeTo(Serializer* out) const {
  const size_t start = out->str().size();
  out->Put<uint64_t>(kSnapshotMagic);
  out->Put<uint64_t>(u_);
  out->PutVector(indices_);
  out->PutVector(values_);
  out->PutString(meta_.algorithm);
  out->Put<uint64_t>(meta_.build_comm_bytes);
  out->Put<double>(meta_.build_sim_seconds);
  // Trailer: CRC32C of every snapshot byte above, so Deserialize can tell
  // on-disk corruption apart from a version/format mismatch.
  out->Put<uint32_t>(
      Crc32c(out->str().data() + start, out->str().size() - start));
}

std::string HistogramSnapshot::Serialize() const {
  Serializer s;
  SerializeTo(&s);
  return s.Release();
}

StatusOr<HistogramSnapshot> HistogramSnapshot::Deserialize(
    const std::string& bytes) {
  Deserializer in(bytes);
  auto truncated = [] {
    return Status::InvalidArgument("snapshot bytes truncated");
  };
  if (in.remaining() < sizeof(uint64_t) + sizeof(uint32_t)) return truncated();
  const uint64_t magic = in.Get<uint64_t>();
  if (magic == kSnapshotMagicV1) {
    return Status::InvalidArgument(
        "snapshot is in the legacy WMSNAP01 format (no checksum trailer); "
        "rebuild it with `wavemr_cli build --out=...`");
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument(
        "not a wavemr snapshot (bad magic; expected WMSNAP02)");
  }
  // Verify the CRC32C trailer before trusting any field: a single flipped
  // bit anywhere in the file must be rejected here, not half-parsed.
  const size_t body = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof(stored_crc));
  const uint32_t computed_crc = Crc32c(bytes.data(), body);
  if (stored_crc != computed_crc) {
    return Status::InvalidArgument(
        "snapshot checksum mismatch (stored " + Hex32(stored_crc) +
        ", computed " + Hex32(computed_crc) +
        "): the file is corrupt or truncated; rebuild or restore it");
  }
  if (in.remaining() < sizeof(uint64_t)) return truncated();
  const uint64_t u = in.Get<uint64_t>();
  if (!IsPowerOfTwo(u)) {
    return Status::InvalidArgument("snapshot domain size " + std::to_string(u) +
                                   " is not a power of two");
  }

  // Vectors element by element: GetVector would CHECK-abort on a truncated
  // count, and these bytes may come from disk or the network.
  auto read_count = [&](uint64_t* n, size_t elem_size) -> bool {
    if (in.remaining() < sizeof(uint64_t)) return false;
    *n = in.Get<uint64_t>();
    return *n <= in.remaining() / elem_size;  // n * elem_size could wrap
  };
  uint64_t n = 0;
  if (!read_count(&n, sizeof(uint64_t))) return truncated();
  std::vector<uint64_t> indices(n);
  for (uint64_t i = 0; i < n; ++i) indices[i] = in.Get<uint64_t>();
  uint64_t nv = 0;
  if (!read_count(&nv, sizeof(double))) return truncated();
  if (nv != n) {
    return Status::InvalidArgument("snapshot index/value count mismatch");
  }
  std::vector<double> values(nv);
  for (uint64_t i = 0; i < nv; ++i) values[i] = in.Get<double>();

  for (uint64_t i = 0; i < n; ++i) {
    if (indices[i] >= u || (i > 0 && indices[i] <= indices[i - 1])) {
      return Status::InvalidArgument(
          "snapshot coefficient indices must be unique, ascending and < u");
    }
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument("snapshot coefficient value not finite");
    }
  }

  Metadata meta;
  uint64_t name_len = 0;
  if (!read_count(&name_len, 1)) return truncated();
  meta.algorithm.resize(name_len);
  for (uint64_t i = 0; i < name_len; ++i) meta.algorithm[i] = in.Get<char>();
  if (in.remaining() < sizeof(uint64_t) + sizeof(double)) return truncated();
  meta.build_comm_bytes = in.Get<uint64_t>();
  meta.build_sim_seconds = in.Get<double>();

  HistogramSnapshot s;
  s.u_ = u;
  s.indices_ = std::move(indices);
  s.values_ = std::move(values);
  s.meta_ = std::move(meta);
  s.BuildIndexes();
  return s;
}

Status HistogramSnapshot::WriteFile(const std::string& path) const {
  // Write-new-then-rename: `path` always holds either the previous snapshot
  // or the complete new one, never a torn file, whatever step fails.
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const char* step, int err) {
    ::unlink(tmp.c_str());
    return Status::IOError(std::string("snapshot ") + step + " failed for " +
                           tmp + ": " + std::strerror(err));
  };
  int fe = FailpointHit("snapshot.write.open");
  const int fd =
      fe != 0 ? -1 : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open", fe != 0 ? fe : errno);
  const std::string bytes = Serialize();
  fe = FailpointHit("snapshot.write.write");
  for (size_t done = 0; fe == 0 && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      fe = n == 0 ? EIO : errno;
    }
  }
  if (fe != 0) {
    ::close(fd);
    return fail("write", fe);
  }
  fe = FailpointHit("snapshot.write.sync");
  if (fe == 0 && ::fsync(fd) != 0) fe = errno;
  if (::close(fd) != 0 && fe == 0) fe = errno;
  if (fe != 0) return fail("sync", fe);
  fe = FailpointHit("snapshot.write.rename");
  if (fe == 0 && std::rename(tmp.c_str(), path.c_str()) != 0) fe = errno;
  if (fe != 0) return fail("rename", fe);
  // Make the rename itself durable.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0 || ::fsync(dfd) != 0) {
    const int err = errno;
    if (dfd >= 0) ::close(dfd);
    return Status::IOError("snapshot directory sync failed for " + dir +
                           ": " + std::strerror(err));
  }
  ::close(dfd);
  return Status::OK();
}

StatusOr<HistogramSnapshot> HistogramSnapshot::ReadFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed: " + path);
  return Deserialize(buf.str());
}

// Defined here rather than in histogram/builder.cc: the histogram layer
// sits below serve in the link DAG and only forward-declares the snapshot
// type; callers of ToSnapshot() include serve/snapshot.h and link the serve
// layer (the wavemr umbrella target does).
HistogramSnapshot BuildResult::ToSnapshot() const {
  HistogramSnapshot::Metadata meta;
  meta.algorithm = algorithm;
  meta.build_comm_bytes = stats.TotalCommBytes();
  meta.build_sim_seconds = stats.TotalSeconds();
  return HistogramSnapshot::FromHistogram(histogram, std::move(meta));
}

}  // namespace wavemr
