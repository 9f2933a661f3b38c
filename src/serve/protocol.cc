#include "serve/protocol.h"

#include <cstring>

#include "core/serialize.h"

namespace wavemr {

namespace {

/// Prefix common to every non-error response.
void PutOk(Serializer* s) { s->Put<uint8_t>(0); }

/// Consumes the status byte; returns the embedded error for code != 0.
Status ConsumeResponseStatus(Deserializer* in) {
  if (in->remaining() < 1) {
    return Status::InvalidArgument("response payload truncated");
  }
  const uint8_t code = in->Get<uint8_t>();
  if (code == 0) return Status::OK();
  std::string message = "server error";
  if (in->remaining() >= sizeof(uint64_t)) {
    const uint64_t len = in->Get<uint64_t>();
    if (in->remaining() >= len) {
      message.clear();
      for (uint64_t i = 0; i < len; ++i) message.push_back(in->Get<char>());
    }
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace

std::string EncodeRequest(const QueryRequest& request) {
  Serializer s;
  s.Put<uint8_t>(static_cast<uint8_t>(request.op));
  switch (request.op) {
    case QueryOp::kPoint:
      s.Put<uint64_t>(request.point_x);
      break;
    case QueryOp::kRange:
      s.Put<uint64_t>(request.range_lo);
      s.Put<uint64_t>(request.range_hi);
      break;
    case QueryOp::kTopK:
      s.Put<uint32_t>(request.topk_count);
      break;
    case QueryOp::kStats:
    case QueryOp::kRebuild:
      break;
  }
  return s.Release();
}

std::string EncodeEstimateResponse(double estimate, uint64_t version) {
  Serializer s;
  PutOk(&s);
  s.Put<double>(estimate);
  s.Put<uint64_t>(version);
  return s.Release();
}

std::string EncodeTopKResponse(const std::vector<WCoeff>& coefficients,
                               uint64_t version) {
  Serializer s;
  PutOk(&s);
  s.Put<uint64_t>(version);
  s.Put<uint32_t>(static_cast<uint32_t>(coefficients.size()));
  for (const WCoeff& c : coefficients) {
    s.Put<uint64_t>(c.index);
    s.Put<double>(c.value);
  }
  return s.Release();
}

std::string EncodeStatsResponse(const ServeStats& stats) {
  Serializer s;
  PutOk(&s);
  s.Put<uint64_t>(stats.version);
  s.Put<uint64_t>(stats.snapshots_published);
  s.Put<uint64_t>(stats.domain_size);
  s.Put<uint64_t>(stats.num_terms);
  s.Put<uint64_t>(stats.queries_served);
  s.PutString(stats.algorithm);
  s.Put<uint64_t>(stats.build_comm_bytes);
  s.Put<double>(stats.build_sim_seconds);
  s.Put<uint64_t>(stats.connections_shed);
  s.Put<uint64_t>(stats.idle_disconnects);
  return s.Release();
}

std::string EncodeRebuildResponse(uint64_t new_version) {
  Serializer s;
  PutOk(&s);
  s.Put<uint64_t>(new_version);
  return s.Release();
}

std::string EncodeErrorResponse(const Status& status) {
  Serializer s;
  s.Put<uint8_t>(static_cast<uint8_t>(status.code()));
  s.PutString(status.message());
  return s.Release();
}

std::string WrapFrame(const std::string& payload) {
  std::string out;
  AppendFrame(&out, payload);
  return out;
}

void AppendFrame(std::string* out, const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  out->append(prefix, sizeof(len));
  out->append(payload);
}

StatusOr<QueryRequest> DecodeRequest(std::string_view payload) {
  Deserializer in(payload);
  if (in.remaining() < 1) {
    return Status::InvalidArgument("empty request payload");
  }
  QueryRequest req;
  const uint8_t op = in.Get<uint8_t>();
  switch (static_cast<QueryOp>(op)) {
    case QueryOp::kPoint:
      if (in.remaining() < sizeof(uint64_t)) {
        return Status::InvalidArgument("point request truncated");
      }
      req.op = QueryOp::kPoint;
      req.point_x = in.Get<uint64_t>();
      break;
    case QueryOp::kRange:
      if (in.remaining() < 2 * sizeof(uint64_t)) {
        return Status::InvalidArgument("range request truncated");
      }
      req.op = QueryOp::kRange;
      req.range_lo = in.Get<uint64_t>();
      req.range_hi = in.Get<uint64_t>();
      break;
    case QueryOp::kTopK:
      if (in.remaining() < sizeof(uint32_t)) {
        return Status::InvalidArgument("topk request truncated");
      }
      req.op = QueryOp::kTopK;
      req.topk_count = in.Get<uint32_t>();
      break;
    case QueryOp::kStats:
      req.op = QueryOp::kStats;
      break;
    case QueryOp::kRebuild:
      req.op = QueryOp::kRebuild;
      break;
    default:
      return Status::InvalidArgument("unknown query op " + std::to_string(op));
  }
  if (!in.Done()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  return req;
}

StatusOr<EstimateResult> DecodeEstimateResponse(const std::string& payload) {
  Deserializer in(payload);
  WAVEMR_RETURN_IF_ERROR(ConsumeResponseStatus(&in));
  if (in.remaining() < sizeof(double) + sizeof(uint64_t)) {
    return Status::InvalidArgument("estimate response truncated");
  }
  EstimateResult r;
  r.estimate = in.Get<double>();
  r.version = in.Get<uint64_t>();
  return r;
}

StatusOr<TopKResult> DecodeTopKResponse(const std::string& payload) {
  Deserializer in(payload);
  WAVEMR_RETURN_IF_ERROR(ConsumeResponseStatus(&in));
  if (in.remaining() < sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::InvalidArgument("topk response truncated");
  }
  TopKResult r;
  r.version = in.Get<uint64_t>();
  const uint32_t n = in.Get<uint32_t>();
  if (in.remaining() < n * (sizeof(uint64_t) + sizeof(double))) {
    return Status::InvalidArgument("topk response truncated");
  }
  r.coefficients.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WCoeff c;
    c.index = in.Get<uint64_t>();
    c.value = in.Get<double>();
    r.coefficients.push_back(c);
  }
  return r;
}

StatusOr<ServeStats> DecodeStatsResponse(const std::string& payload) {
  Deserializer in(payload);
  WAVEMR_RETURN_IF_ERROR(ConsumeResponseStatus(&in));
  if (in.remaining() < 5 * sizeof(uint64_t)) {
    return Status::InvalidArgument("stats response truncated");
  }
  ServeStats st;
  st.version = in.Get<uint64_t>();
  st.snapshots_published = in.Get<uint64_t>();
  st.domain_size = in.Get<uint64_t>();
  st.num_terms = in.Get<uint64_t>();
  st.queries_served = in.Get<uint64_t>();
  if (in.remaining() < sizeof(uint64_t)) {
    return Status::InvalidArgument("stats response truncated");
  }
  const uint64_t name_len = in.Get<uint64_t>();
  if (in.remaining() < name_len + 3 * sizeof(uint64_t) + sizeof(double)) {
    return Status::InvalidArgument("stats response truncated");
  }
  st.algorithm.resize(name_len);
  for (uint64_t i = 0; i < name_len; ++i) st.algorithm[i] = in.Get<char>();
  st.build_comm_bytes = in.Get<uint64_t>();
  st.build_sim_seconds = in.Get<double>();
  st.connections_shed = in.Get<uint64_t>();
  st.idle_disconnects = in.Get<uint64_t>();
  return st;
}

StatusOr<uint64_t> DecodeRebuildResponse(const std::string& payload) {
  Deserializer in(payload);
  WAVEMR_RETURN_IF_ERROR(ConsumeResponseStatus(&in));
  if (in.remaining() < sizeof(uint64_t)) {
    return Status::InvalidArgument("rebuild response truncated");
  }
  return in.Get<uint64_t>();
}

}  // namespace wavemr
