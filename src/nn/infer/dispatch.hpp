// The inference engine has one kernel path (nn/infer/engine.hpp); these
// name it for tools that print the configuration they ran with.
#pragma once

namespace misuse::nn::infer {

enum class InferMode { kScalar };

inline const char* infer_mode_name(InferMode) { return "scalar"; }

inline InferMode effective_infer_mode() { return InferMode::kScalar; }

}  // namespace misuse::nn::infer
