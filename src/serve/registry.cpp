#include "serve/registry.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "datasets/prep.hpp"
#include "health/flightrec.hpp"
#include "gesidnet/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/preprocessor.hpp"

namespace gp::serve {

namespace {

/// Warm-up pass: one deterministic synthetic segment through the gesture
/// model and every user model. Touches every fused weight matrix (paging
/// the snapshot hot before the first real request) and fails fast on any
/// configuration/width mismatch a bad publish could smuggle in.
void warm_up(GesturePrintSystem& system, const GesturePrintConfig& config) {
  GP_SPAN("serve.warmup");
  GestureCloud cloud;
  cloud.num_frames = 8;
  cloud.duration_s = 0.8;
  Rng point_rng(0x3A97u, 11);
  for (int i = 0; i < 32; ++i) {
    RadarPoint p;
    p.position = Vec3(point_rng.uniform(-0.3, 0.3), point_rng.uniform(0.8, 1.4),
                      point_rng.uniform(-0.3, 0.3));
    p.velocity = point_rng.uniform(-1.0, 1.0);
    p.snr_db = point_rng.uniform(5.0, 25.0);
    p.frame = i / 4;
    cloud.points.push_back(p);
  }
  Rng feat_rng(0x3A97u, 13);
  std::vector<FeaturizedSample> one;
  one.push_back(featurize(cloud, config.prep.features, feat_rng));

  (void)predict_logits(system.gesture_model(), one);
  for (std::size_t g = 0; g < system.num_user_models(); ++g) {
    (void)predict_logits(*system.user_model(g), one);
  }
}

}  // namespace

ModelRegistry::ModelRegistry(GesturePrintConfig config) : config_(std::move(config)) {}

std::optional<std::uint64_t> ModelRegistry::publish_file(const std::string& path,
                                                         nn::QuantMode mode) {
  GP_SPAN("serve.publish");
  auto system = std::make_unique<GesturePrintSystem>(config_);
  if (!system->try_load(path)) {
    GP_COUNTER_ADD("gp.serve.model.load_failures", 1);
    health::FlightRecorder::global().record(health::EventKind::kPublishFail, 0);
    log_warn() << "serve: publish of '" << path << "' failed; keeping version "
               << version();
    return std::nullopt;
  }
  return install(std::move(system), mode);
}

std::uint64_t ModelRegistry::publish(std::unique_ptr<GesturePrintSystem> system,
                                     nn::QuantMode mode) {
  GP_SPAN("serve.publish");
  check_arg(system != nullptr && system->fitted(), "publish of an unfitted system");
  return install(std::move(system), mode);
}

std::uint64_t ModelRegistry::install(std::unique_ptr<GesturePrintSystem> system,
                                     nn::QuantMode mode) {
  system->fuse_for_inference(mode);
  warm_up(*system, config_);

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->quant = mode;
  snapshot->system = std::move(system);
  std::uint64_t published = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot->version = next_version_++;
    published = snapshot->version;
    current_ = std::move(snapshot);  // RCU: old generation lives until readers drop it
  }
  GP_COUNTER_ADD("gp.serve.model.swaps", 1);
  health::FlightRecorder::global().record(health::EventKind::kHotSwap, 0, published);
  obs::gauge("gp.serve.model.version").set(static_cast<double>(published));
  obs::gauge("gp.serve.model.quant").set(mode == nn::QuantMode::kInt8 ? 1.0 : 0.0);
  return published;
}

std::shared_ptr<ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::uint64_t ModelRegistry::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->version : 0;
}

}  // namespace gp::serve
