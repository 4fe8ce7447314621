#include "system/gestureprint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/serialize.hpp"
#include "faults/selfheal.hpp"
#include "nn/loss.hpp"
#include "nn/serialize_nn.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp {

namespace {

/// Canonical FNV-1a (common/fnv.hpp) over a byte blob — the model-file
/// integrity checksum.
std::uint64_t blob_digest(const std::string& blob) { return fnv::hash_string(blob); }

/// GP_ABSTAIN_MARGIN override for the config field (empty/unset: keep).
double env_abstain_margin(double fallback) {
  const char* v = std::getenv("GP_ABSTAIN_MARGIN");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || parsed < 0.0 || parsed > 1.0) {
    log_warn() << "ignoring invalid GP_ABSTAIN_MARGIN='" << v << "' (want a value in [0,1])";
    return fallback;
  }
  return parsed;
}

/// `indices` split by the gesture label of each sample (index = gesture
/// id), keeping their order.
std::vector<std::vector<std::size_t>> split_by_gesture(const Dataset& dataset,
                                                       std::span<const std::size_t> indices,
                                                       std::size_t num_gestures) {
  std::vector<std::vector<std::size_t>> groups(num_gestures);
  for (const std::size_t idx : indices) {
    groups[static_cast<std::size_t>(dataset.samples[idx].gesture)].push_back(idx);
  }
  return groups;
}

}  // namespace

double top2_margin(const std::vector<double>& probabilities) {
  if (probabilities.size() < 2) return 1.0;
  double top1 = -1.0;
  double top2 = -1.0;
  for (const double p : probabilities) {
    if (p > top1) {
      top2 = top1;
      top1 = p;
    } else if (p > top2) {
      top2 = p;
    }
  }
  return top1 - top2;
}

bool should_abstain(const std::vector<double>& probabilities, double margin) {
  if (margin <= 0.0) return false;
  return top2_margin(probabilities) < margin;
}

GesturePrintSystem::GesturePrintSystem(GesturePrintConfig config)
    : config_(std::move(config)), rng_(config_.seed, 0xB5297A4D3F2C1E05ULL) {
  config_.abstain_margin = env_abstain_margin(config_.abstain_margin);
}

GesIDNet& GesturePrintSystem::gesture_model() {
  check(gesture_model_ != nullptr, "system not fitted");
  return *gesture_model_;
}

void GesturePrintSystem::fit(const Dataset& dataset,
                             std::span<const std::size_t> train_indices) {
  GP_SPAN("system.fit");
  check_arg(!train_indices.empty(), "fit with empty training set");
  num_gestures_ = dataset.num_gestures();
  num_users_ = dataset.num_users();
  check_arg(num_gestures_ >= 2 && num_users_ >= 2, "need >= 2 gestures and users");
  const bool serialized = config_.mode == IdentificationMode::kSerialized;
  // Serialized routing sends every recognised gesture to its own ID model,
  // so each gesture needs training samples (DESIGN.md §8.5).
  const std::vector<std::vector<std::size_t>> by_gesture =
      serialized ? split_by_gesture(dataset, train_indices, num_gestures_)
                 : std::vector<std::vector<std::size_t>>{};
  for (std::size_t g = 0; g < by_gesture.size(); ++g) {
    check_arg(!by_gesture[g].empty(),
              "serialized fit needs training samples of every gesture; gesture " +
                  std::to_string(g) + " has none");
  }

  // ---- gesture recognition model ----
  {
    GesIDNetConfig net = config_.network;
    net.num_classes = num_gestures_;
    gesture_model_ = std::make_unique<GesIDNet>(net, std::make_unique<Rng>(rng_.fork()));
    Rng prep_rng = rng_.fork();
    const LabeledSamples train = prepare_subset(dataset, train_indices, LabelKind::kGesture,
                                                config_.prep, prep_rng);
    TrainConfig tc = config_.training;
    tc.seed = rng_();
    const TrainStats stats = train_classifier(*gesture_model_, train, tc);
    log_debug() << "gesture model train acc " << stats.train_accuracy;
  }

  // ---- user identification model(s) ----
  user_models_.clear();
  GesIDNetConfig net = config_.network;
  net.num_classes = num_users_;

  if (!serialized) {
    auto model = std::make_unique<GesIDNet>(net, std::make_unique<Rng>(rng_.fork()));
    Rng prep_rng = rng_.fork();
    const LabeledSamples train =
        prepare_subset(dataset, train_indices, LabelKind::kUser, config_.prep, prep_rng);
    TrainConfig tc = config_.training;
    tc.seed = rng_();
    train_classifier(*model, train, tc);
    user_models_.push_back(std::move(model));
    return;
  }

  // Serialized: one ID model per gesture, trained on that gesture's samples.
  user_models_.resize(num_gestures_);
  for (std::size_t g = 0; g < num_gestures_; ++g) {
    auto model = std::make_unique<GesIDNet>(net, std::make_unique<Rng>(rng_.fork()));
    Rng prep_rng = rng_.fork();
    const LabeledSamples train = prepare_subset(dataset, by_gesture[g], LabelKind::kUser,
                                                config_.prep, prep_rng);
    TrainConfig tc = config_.training;
    tc.seed = rng_();
    // Each per-gesture model sees only 1/num_gestures of the data, so a
    // budget that trains the recognition model leaves these undertrained.
    // Compensate with more epochs and smaller batches (total serialized-ID
    // compute stays ~2x one full model pass).
    if (train.size() < 500) {
      tc.epochs = std::min<std::size_t>(tc.epochs * 2, 24);
      tc.batch_size = 16;
    }
    train_classifier(*model, train, tc);
    user_models_[g] = std::move(model);
  }
}

namespace {

// Parameters plus buffers: the full persistent state of one model.
std::vector<nn::Parameter*> full_state(GesIDNet& model) {
  std::vector<nn::Parameter*> state = model.parameters();
  const auto buffers = model.buffers();
  state.insert(state.end(), buffers.begin(), buffers.end());
  return state;
}

}  // namespace

void GesturePrintSystem::fine_tune(const Dataset& dataset,
                                   std::span<const std::size_t> indices, std::size_t epochs,
                                   double lr) {
  check(fitted(), "fine_tune before fit");
  check_arg(!indices.empty(), "fine_tune with no samples");
  check_arg(dataset.num_gestures() == num_gestures_ && dataset.num_users() == num_users_,
            "fine_tune label space mismatch");

  TrainConfig tc = config_.training;
  tc.epochs = epochs;
  tc.lr = lr;
  tc.seed = rng_();

  {
    Rng prep_rng = rng_.fork();
    const LabeledSamples adapt =
        prepare_subset(dataset, indices, LabelKind::kGesture, config_.prep, prep_rng);
    train_classifier(*gesture_model_, adapt, tc);
  }

  if (config_.mode == IdentificationMode::kParallel) {
    Rng prep_rng = rng_.fork();
    const LabeledSamples adapt =
        prepare_subset(dataset, indices, LabelKind::kUser, config_.prep, prep_rng);
    train_classifier(*user_models_.front(), adapt, tc);
    return;
  }
  const auto by_gesture = split_by_gesture(dataset, indices, num_gestures_);
  for (std::size_t g = 0; g < num_gestures_; ++g) {
    // Per-gesture adaptation needs at least a minibatch worth of samples.
    if (by_gesture[g].size() < 4) continue;
    Rng prep_rng = rng_.fork();
    const LabeledSamples adapt = prepare_subset(dataset, by_gesture[g], LabelKind::kUser,
                                                config_.prep, prep_rng);
    train_classifier(*user_models_[g], adapt, tc);
  }
}

int GesturePrintSystem::widen_users(std::uint64_t seed) {
  check(fitted(), "widen_users before fit");
  check(!gesture_model_->fused(), "widen_users on a fused (inference-only) system");
  const int new_user = static_cast<int>(num_users_);
  ++num_users_;
  // Derive per-model init seeds from the caller's seed, not from rng_: the
  // existing fit/load/classify draw sequence must stay untouched so the
  // pre-enrollment paths remain bitwise identical.
  for (std::size_t g = 0; g < user_models_.size(); ++g) {
    user_models_[g] = user_models_[g]->widen_head(num_users_, exec::child_seed(seed, g));
  }
  return new_user;
}

void GesturePrintSystem::fine_tune_user_heads(const Dataset& dataset,
                                              std::span<const std::size_t> indices,
                                              std::size_t epochs, double lr) {
  check(fitted(), "fine_tune_user_heads before fit");
  check_arg(!indices.empty(), "fine_tune_user_heads with no samples");
  check_arg(dataset.num_gestures() == num_gestures_ && dataset.num_users() == num_users_,
            "fine_tune_user_heads label space mismatch");

  TrainConfig tc = config_.training;
  tc.epochs = epochs;
  tc.lr = lr;
  tc.seed = rng_();
  tc.head_only = true;  // frozen trunk: the whole point of the enroll path

  if (config_.mode == IdentificationMode::kParallel) {
    Rng prep_rng = rng_.fork();
    const LabeledSamples adapt =
        prepare_subset(dataset, indices, LabelKind::kUser, config_.prep, prep_rng);
    train_classifier(*user_models_.front(), adapt, tc);
    return;
  }
  const auto by_gesture = split_by_gesture(dataset, indices, num_gestures_);
  for (std::size_t g = 0; g < num_gestures_; ++g) {
    // Per-gesture adaptation needs at least a minibatch worth of samples.
    if (by_gesture[g].size() < 4) continue;
    Rng prep_rng = rng_.fork();
    const LabeledSamples adapt = prepare_subset(dataset, by_gesture[g], LabelKind::kUser,
                                                config_.prep, prep_rng);
    train_classifier(*user_models_[g], adapt, tc);
  }
}

void GesturePrintSystem::fuse_for_inference(nn::QuantMode mode) {
  check(fitted(), "fuse_for_inference before fit");
  gesture_model_->fuse_for_inference(mode);
  for (auto& model : user_models_) model->fuse_for_inference(mode);
}

void GesturePrintSystem::save(const std::string& path) {
  check(fitted(), "save before fit");
  check(!gesture_model_->fused(), "save on a fused (inference-only) system");
  // Serialize into memory first so a whole-payload checksum trailer can be
  // appended: load() verifies it before parsing, turning silent bit rot
  // into a typed, quarantinable SerializationError.
  std::ostringstream buf(std::ios::binary);
  {
    BinaryWriter writer(buf, "GPS2");
    writer.write_u8(config_.mode == IdentificationMode::kSerialized ? 1 : 0);
    writer.write_u32(static_cast<std::uint32_t>(num_gestures_));
    writer.write_u32(static_cast<std::uint32_t>(num_users_));
    // Each model's f32 parameters are followed by its int8 quant section
    // (GPS2 extension, DESIGN.md §11): precomputed per-channel tables so a
    // loaded system can fuse straight into the quantized kernel without
    // retraining-time state. Written unconditionally — int8 tables cost
    // ~1/4 of the f32 payload and keep the format mode-independent.
    nn::save_parameters(buf, full_state(*gesture_model_));
    nn::save_quant_tables(buf, gesture_model_->collect_quant_tables());
    writer.write_u32(static_cast<std::uint32_t>(user_models_.size()));
    for (auto& model : user_models_) {
      writer.write_u8(1);  // slot flag: always set (load() rejects 0)
      nn::save_parameters(buf, full_state(*model));
      nn::save_quant_tables(buf, model->collect_quant_tables());
    }
  }
  const std::string blob = buf.str();
  const std::uint64_t digest = blob_digest(blob);

  // Transient write failures (flaky storage) are retried with backoff.
  faults::with_retries(faults::RetryPolicy{}, [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open system file for writing: " + path);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    for (int i = 0; i < 8; ++i) {
      out.put(static_cast<char>((digest >> (8 * i)) & 0xFF));
    }
    if (!out) throw Error("short write while saving system file: " + path);
    return true;
  });
}

void GesturePrintSystem::load(const std::string& path) {
  std::string blob;
  {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw Error("cannot open system file for reading: " + path);
    std::ostringstream buf;
    buf << file.rdbuf();
    blob = buf.str();
  }
  if (blob.size() < 8) {
    throw SerializationError("system file truncated (no checksum trailer): " + path);
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(blob[blob.size() - 8 + i]))
              << (8 * i);
  }
  blob.resize(blob.size() - 8);
  if (blob_digest(blob) != stored) {
    throw SerializationError("system file checksum mismatch (bit rot or truncation): " +
                             path);
  }

  std::istringstream in(blob, std::ios::binary);
  BinaryReader reader(in, "GPS2");
  const bool serialized = reader.read_u8() == 1;
  if (serialized != (config_.mode == IdentificationMode::kSerialized)) {
    throw SerializationError("identification mode mismatch while loading system");
  }
  num_gestures_ = reader.read_u32();
  num_users_ = reader.read_u32();

  GesIDNetConfig gnet = config_.network;
  gnet.num_classes = num_gestures_;
  gesture_model_ = std::make_unique<GesIDNet>(gnet, std::make_unique<Rng>(rng_.fork()));
  nn::load_parameters(in, full_state(*gesture_model_));
  gesture_model_->set_pending_quant_tables(nn::load_quant_tables(in));

  GesIDNetConfig unet = config_.network;
  unet.num_classes = num_users_;
  const std::uint32_t model_count = reader.read_u32();
  if (model_count != (serialized ? num_gestures_ : 1)) {
    throw SerializationError("system file has " + std::to_string(model_count) +
                             " ID models; its mode needs " +
                             std::to_string(serialized ? num_gestures_ : 1));
  }
  user_models_.clear();
  user_models_.resize(model_count);
  for (std::uint32_t g = 0; g < model_count; ++g) {
    // Every routing slot must hold a model (DESIGN.md §8.5).
    if (reader.read_u8() == 0) {
      throw SerializationError("system file lacks the ID model for slot " + std::to_string(g));
    }
    user_models_[g] = std::make_unique<GesIDNet>(unet, std::make_unique<Rng>(rng_.fork()));
    nn::load_parameters(in, full_state(*user_models_[g]));
    user_models_[g]->set_pending_quant_tables(nn::load_quant_tables(in));
  }
}

bool GesturePrintSystem::try_load(const std::string& path) {
  // Missing file is the ordinary cold-start case: no warning, no retry.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;

  try {
    // Transient open/read failures retry with backoff; corruption
    // (SerializationError) escapes immediately — re-reading rotten bytes
    // cannot heal them.
    faults::with_retries(faults::RetryPolicy{}, [&] {
      load(path);
      return true;
    });
    return true;
  } catch (const SerializationError& e) {
    const std::string moved = faults::quarantine_file(path);
    GP_COUNTER_ADD("gp.system.model_quarantined", 1);
    log_warn() << "quarantined corrupt system file " << path << " -> "
               << (moved.empty() ? std::string("<rename failed>") : moved)
               << " (" << e.what() << "); refit and re-save";
  } catch (const Error& e) {
    log_warn() << "cannot load system file " << path << ": " << e.what();
  }
  // Failure leaves the system unfitted so the caller's refit path is
  // unambiguous (a half-loaded model must never classify).
  gesture_model_.reset();
  user_models_.clear();
  return false;
}

InferenceResult GesturePrintSystem::classify(const GestureCloud& cloud) {
  GP_SPAN("system.classify");
  GP_COUNTER_ADD("gp.system.classifications", 1);
  check(fitted(), "classify before fit");
  const std::size_t rounds = std::max<std::size_t>(1, config_.eval_rounds);

  // Quality gate (graceful degradation, DESIGN.md §7): when the abstention
  // gate is armed, a cloud that failed its preprocessing guards is refused
  // outright rather than resampled into garbage. With the gate disabled
  // (abstain_margin == 0) behaviour is bitwise-identical to older builds.
  if (config_.abstain_margin > 0.0 &&
      (cloud.points.empty() || cloud.quality != SegmentQuality::kGood)) {
    GP_COUNTER_ADD("gp.system.abstained.quality", 1);
    InferenceResult refused;
    refused.gesture = kAbstain;
    refused.user = kAbstain;
    refused.abstained = true;
    refused.gesture_margin = 0.0;
    refused.user_margin = 0.0;
    return refused;
  }

  // Featurize `rounds` stochastic resamplings of the cloud once; decide()
  // averages the posteriors over them (test-time augmentation).
  std::vector<FeaturizedSample> variants;
  variants.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng feat_rng = rng_.fork();
    variants.push_back(featurize(cloud, config_.prep.features, feat_rng));
  }
  const std::size_t row_begin[] = {0, rounds};
  DecideScratch scratch;
  mem::SlotVector<InferenceResult> decided;
  decide(variants, row_begin, config_.abstain_margin, scratch, decided);
  InferenceResult& result = decided[0];
  if (result.gesture == kAbstain) {
    GP_COUNTER_ADD("gp.system.abstained.gesture", 1);
  } else if (result.user == kAbstain) {
    GP_COUNTER_ADD("gp.system.abstained.user", 1);
  }
  return std::move(result);
}

void GesturePrintSystem::decide(std::span<const FeaturizedSample> rows,
                                std::span<const std::size_t> row_begin, double abstain_margin,
                                DecideScratch& scratch, mem::SlotVector<InferenceResult>& out) {
  check(fitted(), "decide before fit");
  check_arg(row_begin.size() >= 2 && row_begin.front() == 0 && row_begin.back() == rows.size(),
            "decide: row_begin must run from 0 to rows.size()");
  const std::size_t items = row_begin.size() - 1;
  for (std::size_t i = 0; i < items; ++i) {
    check_arg(row_begin[i] < row_begin[i + 1], "decide: every item needs at least one row");
  }

  // One model pass over `model_rows`: softmax posteriors land in
  // scratch.probs; the wall time is added to scratch.forward_ns.
  const auto forward = [&](GesIDNet& model, std::span<const FeaturizedSample> model_rows) {
    const std::uint64_t t0 = monotonic_ns();
    predict_logits_into(model, model_rows, scratch.logits);
    nn::softmax_into(scratch.logits, scratch.probs);
    scratch.forward_ns += monotonic_ns() - t0;
  };
  // TTA average of softmax rows [begin, begin + count) in double, then the
  // answer (argmax, or kAbstain under the margin gate) and its margin.
  const auto average_and_gate = [&](std::size_t begin, std::size_t count,
                                    std::vector<double>& posterior, int& answer,
                                    double& margin) {
    posterior.assign(scratch.probs.cols(), 0.0);
    for (std::size_t r = begin; r < begin + count; ++r) {
      for (std::size_t c = 0; c < posterior.size(); ++c) {
        posterior[c] += scratch.probs.at(r, c) / static_cast<double>(count);
      }
    }
    answer = static_cast<int>(argmax(posterior));
    margin = top2_margin(posterior);
    if (should_abstain(posterior, abstain_margin)) answer = kAbstain;
  };

  // Gesture pass over every row; survivors are grouped by routed ID model.
  forward(*gesture_model_, rows);
  const bool parallel = config_.mode == IdentificationMode::kParallel;
  std::vector<std::vector<std::size_t>>& by_model = scratch.by_model;
  if (by_model.size() < user_models_.size()) by_model.resize(user_models_.size());
  for (auto& members : by_model) members.clear();
  out.clear();
  for (std::size_t i = 0; i < items; ++i) {
    // Recycled slot: reset field by field so the posterior buffers keep
    // their capacity.
    InferenceResult& r = out.emplace_back();
    r.user = -1;
    r.abstained = false;
    r.user_margin = 1.0;
    r.user_probabilities.clear();
    average_and_gate(row_begin[i], row_begin[i + 1] - row_begin[i], r.gesture_probabilities,
                     r.gesture, r.gesture_margin);
    if (r.gesture == kAbstain) {
      // An ambiguous gesture would route to the wrong ID model in serialized
      // mode, which is worse than no answer: abstain on both heads.
      r.user = kAbstain;
      r.abstained = true;
      continue;
    }
    by_model[parallel ? 0 : static_cast<std::size_t>(r.gesture)].push_back(i);
  }

  // One batched pass per routed ID model, in ascending model index.
  for (std::size_t m = 0; m < user_models_.size(); ++m) {
    const std::vector<std::size_t>& members = by_model[m];
    if (members.empty()) continue;
    scratch.group_rows.clear();
    for (const std::size_t i : members) {
      for (std::size_t row = row_begin[i]; row < row_begin[i + 1]; ++row) {
        scratch.group_rows.emplace_back() = rows[row];
      }
    }
    forward(*user_models_[m], scratch.group_rows.span());
    std::size_t begin = 0;  // members' rows sit back to back in group_rows
    for (const std::size_t i : members) {
      const std::size_t count = row_begin[i + 1] - row_begin[i];
      InferenceResult& r = out[i];
      average_and_gate(begin, count, r.user_probabilities, r.user, r.user_margin);
      if (r.user == kAbstain) r.abstained = true;
      begin += count;
    }
  }
}

SystemEvaluation GesturePrintSystem::evaluate(const Dataset& dataset,
                                              std::span<const std::size_t> test_indices) {
  std::vector<const GestureSample*> samples;
  samples.reserve(test_indices.size());
  for (std::size_t idx : test_indices) {
    check_arg(idx < dataset.samples.size(), "test index out of range");
    samples.push_back(&dataset.samples[idx]);
  }
  return evaluate_samples(samples);
}

SystemEvaluation GesturePrintSystem::evaluate_dataset(const Dataset& dataset) {
  std::vector<const GestureSample*> samples;
  samples.reserve(dataset.samples.size());
  for (const auto& s : dataset.samples) samples.push_back(&s);
  return evaluate_samples(samples);
}

SystemEvaluation GesturePrintSystem::evaluate_samples(
    const std::vector<const GestureSample*>& samples) {
  GP_SPAN("system.evaluate");
  check(fitted(), "evaluate before fit");
  check_arg(!samples.empty(), "evaluate with no samples");

  // Featurize `eval_rounds` stochastic resamplings per sample (test-time
  // augmentation; no positional jitter). Draws stay round-major; sample i's
  // variants are rows [i*rounds, (i+1)*rounds).
  const std::size_t rounds = std::max<std::size_t>(1, config_.eval_rounds);
  const std::size_t n = samples.size();
  std::vector<FeaturizedSample> rows(n * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng feat_rng = rng_.fork();
    for (std::size_t i = 0; i < n; ++i) {
      rows[i * rounds + r] = featurize(samples[i]->cloud, config_.prep.features, feat_rng);
    }
  }
  // The served rule, without abstention: the paper's GRA/UIA score every
  // sample. decide() runs on chunks of at most one inference batch of rows
  // (predict_logits' default 64): the unfused models keep their last batch's
  // activations, so wider passes would only raise peak memory — decide() is
  // row-local, so chunking cannot change an answer.
  const std::size_t chunk = std::max<std::size_t>(1, 64 / rounds);
  std::vector<int> truth_gesture(n), truth_user(n), gpred(n), upred(n);
  nn::Tensor gprobs(n, num_gestures_);
  nn::Tensor uprobs(n, num_users_);
  DecideScratch scratch;
  mem::SlotVector<InferenceResult> decided;
  std::vector<std::size_t> row_begin;
  for (std::size_t first = 0; first < n; first += chunk) {
    const std::size_t count = std::min(chunk, n - first);
    row_begin.clear();
    for (std::size_t k = 0; k <= count; ++k) row_begin.push_back(k * rounds);
    decide(std::span<const FeaturizedSample>(rows).subspan(first * rounds, count * rounds),
           row_begin, /*abstain_margin=*/0.0, scratch, decided);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = first + k;
      const InferenceResult& d = decided[k];
      truth_gesture[i] = samples[i]->gesture;
      truth_user[i] = samples[i]->user;
      gpred[i] = d.gesture;
      upred[i] = d.user;
      for (std::size_t c = 0; c < num_gestures_; ++c) {
        gprobs.at(i, c) = static_cast<float>(d.gesture_probabilities[c]);
      }
      for (std::size_t c = 0; c < num_users_; ++c) {
        uprobs.at(i, c) = static_cast<float>(d.user_probabilities[c]);
      }
    }
  }

  SystemEvaluation eval;
  eval.gesture_confusion = build_confusion(truth_gesture, gpred, num_gestures_);
  eval.gra = eval.gesture_confusion.accuracy();
  eval.grf1 = eval.gesture_confusion.macro_f1();
  eval.grauc = macro_auc(gprobs, truth_gesture);
  eval.user_confusion = build_confusion(truth_user, upred, num_users_);
  eval.uia = eval.user_confusion.accuracy();
  eval.uif1 = eval.user_confusion.macro_f1();
  eval.uiauc = macro_auc(uprobs, truth_user);
  eval.user_roc = roc_from_probabilities(uprobs, truth_user);
  return eval;
}

}  // namespace gp
