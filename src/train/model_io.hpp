// Self-describing model bundles: a CircuitGPS checkpoint stored together
// with its architecture configuration, so a saved meta-learner can be
// reloaded (e.g. for later fine-tuning on a new design, or by cgps_serve)
// without out-of-band knowledge of its hyperparameters.
//
// Three on-disk formats coexist:
//   v1 ("CGMB"): config text + weights. Loads with an unfitted normalizer.
//   v2 ("CGM2"): adds a format version and the fitted XcNormalizer bounds,
//                so inference normalizes X_C exactly as training did instead
//                of refitting on whatever graphs happen to be served.
//   v3 ("CGM3"): v2 plus an int8 weight section (per-entry name, layout,
//                shape, fp32 scales, int8 codes) ahead of the fp32 weights,
//                written by earlier releases. The loader checks that every
//                entry fits the model, then drops the section: a v3 file
//                serves the fp32 weights it carries.
// save_model_bundle writes v2; load_model_bundle reads all three.
#pragma once

#include "gps/batch.hpp"
#include "gps/model.hpp"

#include <memory>
#include <string>

namespace cgps {

// A loaded bundle. `normalizer.fitted()` is false for v1 files and for v2
// files saved without one — callers must then fit their own (and should warn:
// predictions will not match the training-time feature scaling).
struct ModelBundle {
  std::unique_ptr<CircuitGps> model;
  XcNormalizer normalizer;
};

// `normalizer` may be null or unfitted; the bundle records its absence.
void save_model_bundle(const CircuitGps& model, const std::string& path,
                       const XcNormalizer* normalizer = nullptr);

// Reconstructs the model from the embedded config and loads the weights.
// Throws std::runtime_error on magic/format mismatch, and on a v3 int8 entry
// that does not fit the model (the message names the entry).
std::unique_ptr<CircuitGps> load_model_bundle(const std::string& path);

// As load_model_bundle, but also surfaces the stored normalizer bounds.
ModelBundle load_model_bundle_full(const std::string& path);

}  // namespace cgps
