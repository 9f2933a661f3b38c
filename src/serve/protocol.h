#ifndef WAVEMR_SERVE_PROTOCOL_H_
#define WAVEMR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "wavelet/coefficient.h"

namespace wavemr {

/// The wavemr_serve wire protocol: length-prefixed binary frames over TCP.
///
///   frame    := uint32 payload_len (LE) | payload
///   request  := uint8 op | op-specific little-endian fields
///   response := uint8 code (StatusCode; 0 = OK) | result fields, or --
///               when code != 0 -- uint64 len | error message bytes
///
/// Requests on one connection are answered in order. All integers are
/// little-endian fixed width (core/serialize.h framing); doubles are IEEE
/// bits, so an estimate crosses the wire bit-identically.
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 20;

enum class QueryOp : uint8_t {
  kPoint = 1,    // uint64 x                -> double estimate, uint64 version
  kRange = 2,    // uint64 lo, uint64 hi    -> double estimate, uint64 version
  kTopK = 3,     // uint32 count            -> uint64 version, uint32 n,
                 //                            n * (uint64 index, double value)
  kStats = 4,    // (none)                  -> ServeStats fields
  kRebuild = 5,  // (none)                  -> uint64 new version
};

struct QueryRequest {
  QueryOp op = QueryOp::kStats;
  uint64_t point_x = 0;    // kPoint
  uint64_t range_lo = 0;   // kRange
  uint64_t range_hi = 0;   // kRange
  uint32_t topk_count = 0; // kTopK
};

/// What the kStats op reports.
struct ServeStats {
  uint64_t version = 0;             // currently served snapshot version
  uint64_t snapshots_published = 0; // total versions ever published
  uint64_t domain_size = 0;
  uint64_t num_terms = 0;
  uint64_t queries_served = 0;      // requests answered since server start
  std::string algorithm;            // builder that produced the snapshot
  uint64_t build_comm_bytes = 0;
  double build_sim_seconds = 0.0;
  /// Robustness telemetry: connections rejected at the max-connection cap
  /// (load shedding) and connections evicted by the idle timeout.
  uint64_t connections_shed = 0;
  uint64_t idle_disconnects = 0;
};

// ---- encoding (payloads; the frame length prefix is added separately) ----

std::string EncodeRequest(const QueryRequest& request);
std::string EncodeEstimateResponse(double estimate, uint64_t version);
std::string EncodeTopKResponse(const std::vector<WCoeff>& coefficients,
                               uint64_t version);
std::string EncodeStatsResponse(const ServeStats& stats);
std::string EncodeRebuildResponse(uint64_t new_version);
std::string EncodeErrorResponse(const Status& status);

/// Wraps a payload into a frame (4-byte LE length + payload).
std::string WrapFrame(const std::string& payload);
/// Appends the frame of `payload` to `out` (WrapFrame without a new string).
void AppendFrame(std::string* out, const std::string& payload);

// ---- decoding; all reject truncated/oversized input with a Status ----

StatusOr<QueryRequest> DecodeRequest(std::string_view payload);

struct EstimateResult {
  double estimate = 0.0;
  uint64_t version = 0;
};
struct TopKResult {
  std::vector<WCoeff> coefficients;
  uint64_t version = 0;
};

/// Decoders for the client side: they surface a server-sent error response
/// as its embedded Status.
StatusOr<EstimateResult> DecodeEstimateResponse(const std::string& payload);
StatusOr<TopKResult> DecodeTopKResponse(const std::string& payload);
StatusOr<ServeStats> DecodeStatsResponse(const std::string& payload);
StatusOr<uint64_t> DecodeRebuildResponse(const std::string& payload);

}  // namespace wavemr

#endif  // WAVEMR_SERVE_PROTOCOL_H_
