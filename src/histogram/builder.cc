#include "histogram/builder.h"

#include "approx/samplers.h"
#include "approx/send_sketch.h"
#include "core/logging.h"
#include "exact/h_wtopk.h"
#include "exact/send_coef.h"
#include "exact/send_v.h"

namespace wavemr {

const char* AlgorithmName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSendV:
      return "Send-V";
    case AlgorithmKind::kSendCoef:
      return "Send-Coef";
    case AlgorithmKind::kHWTopk:
      return "H-WTopk";
    case AlgorithmKind::kBasicS:
      return "Basic-S";
    case AlgorithmKind::kImprovedS:
      return "Improved-S";
    case AlgorithmKind::kTwoLevelS:
      return "TwoLevel-S";
    case AlgorithmKind::kSendSketch:
      return "Send-Sketch";
  }
  return "Unknown";
}

std::unique_ptr<HistogramAlgorithm> MakeAlgorithm(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSendV:
      return std::make_unique<SendV>();
    case AlgorithmKind::kSendCoef:
      return std::make_unique<SendCoef>();
    case AlgorithmKind::kHWTopk:
      return std::make_unique<HWTopk>();
    case AlgorithmKind::kBasicS:
      return std::make_unique<BasicSampling>();
    case AlgorithmKind::kImprovedS:
      return std::make_unique<ImprovedSampling>();
    case AlgorithmKind::kTwoLevelS:
      return std::make_unique<TwoLevelSampling>();
    case AlgorithmKind::kSendSketch:
      return std::make_unique<SendSketch>();
  }
  WAVEMR_LOG(Fatal) << "unknown algorithm kind";
  return nullptr;
}

StatusOr<AlgorithmKind> ParseAlgorithmKind(const std::string& name) {
  if (name == "send-v") return AlgorithmKind::kSendV;
  if (name == "send-coef") return AlgorithmKind::kSendCoef;
  if (name == "h-wtopk") return AlgorithmKind::kHWTopk;
  if (name == "basic-s") return AlgorithmKind::kBasicS;
  if (name == "improved-s") return AlgorithmKind::kImprovedS;
  if (name == "twolevel-s") return AlgorithmKind::kTwoLevelS;
  if (name == "send-sketch") return AlgorithmKind::kSendSketch;
  return Status::InvalidArgument(
      "unknown algorithm (expected send-v|send-coef|h-wtopk|basic-s|"
      "improved-s|twolevel-s|send-sketch): " + name);
}

StatusOr<BuildResult> BuildWaveletHistogram(const Dataset& dataset,
                                            AlgorithmKind kind,
                                            const BuildOptions& options) {
  WAVEMR_RETURN_IF_ERROR(options.Validate());
  auto result = MakeAlgorithm(kind)->Build(dataset, options);
  if (result.ok()) result->algorithm = AlgorithmName(kind);
  return result;
}

std::vector<AlgorithmKind> AllAlgorithms() {
  return {AlgorithmKind::kSendV,     AlgorithmKind::kSendCoef,
          AlgorithmKind::kHWTopk,    AlgorithmKind::kBasicS,
          AlgorithmKind::kImprovedS, AlgorithmKind::kTwoLevelS,
          AlgorithmKind::kSendSketch};
}

std::vector<AlgorithmKind> ExactAlgorithms() {
  return {AlgorithmKind::kSendV, AlgorithmKind::kSendCoef, AlgorithmKind::kHWTopk};
}

std::vector<AlgorithmKind> ApproximateAlgorithms() {
  return {AlgorithmKind::kBasicS, AlgorithmKind::kImprovedS,
          AlgorithmKind::kTwoLevelS, AlgorithmKind::kSendSketch};
}

}  // namespace wavemr
