#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/crc32c.h"
#include "core/failpoint.h"
#include "data/dataset.h"
#include "histogram/builder.h"

namespace wavemr {
namespace {

// Recomputes the CRC trailer after a deliberate byte mutation, so a test
// reaches the semantic validation that sits behind the checksum gate.
void FixupCrc(std::string* bytes) {
  ASSERT_GE(bytes->size(), sizeof(uint32_t));
  const size_t body = bytes->size() - sizeof(uint32_t);
  const uint32_t crc = Crc32c(bytes->data(), body);
  std::memcpy(bytes->data() + body, &crc, sizeof(crc));
}

HistogramSnapshot MakeSample() {
  SnapshotMetadata meta;
  meta.algorithm = "H-WTopk";
  meta.build_comm_bytes = 12345;
  meta.build_sim_seconds = 6.5;
  // Unsorted on purpose: FromCoefficients sorts by index.
  return HistogramSnapshot::FromCoefficients(
      8, {{5, -1.25}, {0, 4.0}, {2, 3.0}, {1, -3.0}, {3, 0.5}}, meta);
}

TEST(HistogramSnapshotTest, LayoutIsIndexAscending) {
  HistogramSnapshot snap = MakeSample();
  EXPECT_EQ(snap.domain_size(), 8u);
  EXPECT_EQ(snap.num_levels(), 3u);
  EXPECT_EQ(snap.num_terms(), 5u);
  EXPECT_TRUE(snap.has_average());
  const std::vector<uint64_t> want_idx = {0, 1, 2, 3, 5};
  EXPECT_EQ(snap.indices(), want_idx);
  const std::vector<double> want_val = {4.0, -3.0, 3.0, 0.5, -1.25};
  EXPECT_EQ(snap.values(), want_val);
}

TEST(HistogramSnapshotTest, LevelRangesSliceTheErrorTree) {
  HistogramSnapshot snap = MakeSample();
  // Detail level j holds indices [2^j, 2^(j+1)): positions after the average.
  EXPECT_EQ(snap.LevelRange(0), (std::pair<size_t, size_t>{1, 2}));  // idx 1
  EXPECT_EQ(snap.LevelRange(1), (std::pair<size_t, size_t>{2, 4}));  // idx 2,3
  EXPECT_EQ(snap.LevelRange(2), (std::pair<size_t, size_t>{4, 5}));  // idx 5
}

TEST(HistogramSnapshotTest, FindIndex) {
  HistogramSnapshot snap = MakeSample();
  EXPECT_EQ(snap.FindIndex(0), 0u);
  EXPECT_EQ(snap.FindIndex(3), 3u);
  EXPECT_EQ(snap.FindIndex(5), 4u);
  EXPECT_EQ(snap.FindIndex(4), HistogramSnapshot::npos);
  EXPECT_EQ(snap.FindIndex(7), HistogramSnapshot::npos);
}

TEST(HistogramSnapshotTest, TopCoefficientsMagnitudeDescendingTiesByIndex) {
  HistogramSnapshot snap = MakeSample();
  std::vector<WCoeff> top = snap.TopCoefficients(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 0u);  // |4.0|
  EXPECT_EQ(top[1].index, 1u);  // |-3.0|, tie with index 2 -> lower index
  EXPECT_EQ(top[2].index, 2u);  // |3.0|
  // count clamps to num_terms.
  EXPECT_EQ(snap.TopCoefficients(100).size(), 5u);
  EXPECT_TRUE(snap.TopCoefficients(0).empty());
}

TEST(HistogramSnapshotTest, RoundTripPreservesEverything) {
  HistogramSnapshot snap = MakeSample();
  auto back = HistogramSnapshot::Deserialize(snap.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->domain_size(), snap.domain_size());
  EXPECT_EQ(back->indices(), snap.indices());
  EXPECT_EQ(back->values(), snap.values());
  EXPECT_EQ(back->metadata().algorithm, "H-WTopk");
  EXPECT_EQ(back->metadata().build_comm_bytes, 12345u);
  EXPECT_EQ(back->metadata().build_sim_seconds, 6.5);
  // Derived indexes rebuilt identically.
  EXPECT_EQ(back->LevelRange(1), snap.LevelRange(1));
  EXPECT_EQ(back->TopCoefficients(2)[0].index, snap.TopCoefficients(2)[0].index);
}

TEST(HistogramSnapshotTest, RoundTripEmptySnapshot) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.num_terms(), 0u);
  EXPECT_FALSE(empty.has_average());
  auto back = HistogramSnapshot::Deserialize(empty.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->domain_size(), 1u);
  EXPECT_EQ(back->num_terms(), 0u);
}

TEST(HistogramSnapshotTest, RoundTripSingleCoefficient) {
  HistogramSnapshot one = HistogramSnapshot::FromCoefficients(16, {{9, 2.5}});
  auto back = HistogramSnapshot::Deserialize(one.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_terms(), 1u);
  EXPECT_EQ(back->indices()[0], 9u);
  EXPECT_EQ(back->values()[0], 2.5);
  EXPECT_FALSE(back->has_average());
}

TEST(HistogramSnapshotTest, DeserializeRejectsBadMagic) {
  std::string bytes = MakeSample().Serialize();
  bytes[0] ^= 0xFF;
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramSnapshotTest, DeserializeRejectsEveryTruncation) {
  const std::string bytes = MakeSample().Serialize();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = HistogramSnapshot::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HistogramSnapshotTest, DeserializeRejectsNonPowerOfTwoDomain) {
  Serializer s;
  HistogramSnapshot::FromCoefficients(8, {{1, 1.0}}).SerializeTo(&s);
  std::string bytes = s.Release();
  bytes[8] = 7;  // u field follows the 8-byte magic
  FixupCrc(&bytes);
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramSnapshotTest, DeserializeRejectsOutOfDomainIndex) {
  std::string bytes = MakeSample().Serialize();
  bytes[8] = 4;  // shrink u below the largest stored index (5)
  FixupCrc(&bytes);
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A CRC-valid file whose index count times 8 bytes wraps past 2^64 must be
// rejected as malformed, not reach a vector allocation of 2^61 elements.
TEST(HistogramSnapshotTest, DeserializeRejectsWrappingCount) {
  std::string bytes = MakeSample().Serialize();
  const uint64_t huge = uint64_t{1} << 61;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));  // after magic and u
  FixupCrc(&bytes);
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The robustness guarantee behind the CRC trailer: no single flipped bit
// anywhere in the file -- header, payload, metadata, or the trailer itself --
// deserializes successfully.
TEST(HistogramSnapshotTest, DeserializeRejectsEveryBitFlip) {
  const std::string good = MakeSample().Serialize();
  ASSERT_TRUE(HistogramSnapshot::Deserialize(good).ok());
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
      auto r = HistogramSnapshot::Deserialize(bad);
      EXPECT_FALSE(r.ok()) << "byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(HistogramSnapshotTest, ChecksumMismatchMessageIsActionable) {
  std::string bytes = MakeSample().Serialize();
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the payload, not the trailer
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum mismatch"), std::string::npos)
      << r.status().ToString();
}

TEST(HistogramSnapshotTest, DeserializeRejectsLegacyWmsnap01) {
  std::string bytes = MakeSample().Serialize();
  ASSERT_EQ(bytes[7], '2');  // magic is "WMSNAP02" in byte order
  bytes[7] = '1';
  auto r = HistogramSnapshot::Deserialize(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("WMSNAP01"), std::string::npos)
      << r.status().ToString();
}

TEST(HistogramSnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wavemr_snapshot_test.snap";
  HistogramSnapshot snap = MakeSample();
  ASSERT_TRUE(snap.WriteFile(path).ok());
  auto back = HistogramSnapshot::ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->indices(), snap.indices());
  EXPECT_EQ(back->values(), snap.values());
  std::remove(path.c_str());
  EXPECT_FALSE(HistogramSnapshot::ReadFile(path).ok());
}

TEST(HistogramSnapshotTest, FailedWriteKeepsPreviousVersion) {
  const std::string path =
      ::testing::TempDir() + "/wavemr_snapshot_crash_test.snap";
  HistogramSnapshot old_snap = MakeSample();
  ASSERT_TRUE(old_snap.WriteFile(path).ok());
  HistogramSnapshot new_snap = HistogramSnapshot::FromCoefficients(
      16, {{7, 2.5}, {9, -4.0}}, SnapshotMetadata{});
  for (const char* site : {"snapshot.write.open", "snapshot.write.write",
                           "snapshot.write.sync", "snapshot.write.rename"}) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(Failpoints::ArmFromSpec(std::string(site) + "=error:ENOSPC").ok());
    const Status st = new_snap.WriteFile(path);
    Failpoints::DisarmAll();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "a failed write must remove its temp file";
    auto back = HistogramSnapshot::ReadFile(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->domain_size(), old_snap.domain_size());
    EXPECT_EQ(back->indices(), old_snap.indices());
    EXPECT_EQ(back->values(), old_snap.values());
  }
  // With nothing armed the same write replaces the file.
  ASSERT_TRUE(new_snap.WriteFile(path).ok());
  auto back = HistogramSnapshot::ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->indices(), new_snap.indices());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(HistogramSnapshotTest, ToSnapshotCarriesBuildProvenance) {
  InMemoryDataset ds({{0, 0, 1, 3}, {1, 1, 2, 0}}, 4);
  BuildOptions options;
  options.k = 4;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendV, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  HistogramSnapshot snap = result->ToSnapshot();
  EXPECT_EQ(snap.metadata().algorithm, "Send-V");
  EXPECT_EQ(snap.metadata().build_comm_bytes, result->stats.TotalCommBytes());
  EXPECT_EQ(snap.metadata().build_sim_seconds, result->stats.TotalSeconds());
  EXPECT_EQ(snap.domain_size(), result->histogram.domain_size());
  EXPECT_EQ(snap.num_terms(), result->histogram.num_terms());
  // Same coefficients, index-ascending.
  std::vector<WCoeff> coeffs = snap.Coefficients();
  ASSERT_EQ(coeffs.size(), result->histogram.coefficients().size());
  for (size_t i = 0; i < coeffs.size(); ++i) {
    EXPECT_EQ(coeffs[i].index, result->histogram.coefficients()[i].index);
    EXPECT_EQ(coeffs[i].value, result->histogram.coefficients()[i].value);
  }
}

}  // namespace
}  // namespace wavemr
