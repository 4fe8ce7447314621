#include "probes.hpp"

#include <memory>

#include "gesidnet/batch.hpp"
#include "gesidnet/fusion.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/set_abstraction.hpp"
#include "exec/exec.hpp"
#include "nn/fused.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "pipeline/preprocessor.hpp"

namespace gp::perfbench {

namespace {

constexpr std::size_t kTrainBatch = 32;  ///< TrainConfig batch of the paper-table config
constexpr std::size_t kServeBatch = 16;  ///< ServeConfig{}.batch_max

/// Median wall time of one call of `fn`, in ms, over at least `min_reps`
/// calls and `min_ms` of calls, after one untimed warm-up call. Each timed
/// call is a span named `name`.
template <typename Fn>
double median_ms(Tracer& tracer, const char* name, Fn&& fn, std::size_t min_reps = 7,
                 double min_ms = 150.0) {
  fn();
  Samples s;
  const Clock::time_point start = Clock::now();
  while (s.count() < min_reps || ms_since(start) < min_ms) {
    auto span = tracer.span(name);
    const Clock::time_point t = Clock::now();
    fn();
    s.add(ms_since(t));
  }
  return s.median();
}

/// One Linear layer of GesIDNet as seen by the kernels: `rows` activation
/// rows of `in` features to `out` features; `mlp` marks the shared-MLP
/// layers followed by BatchNorm1d and ReLU.
struct LayerShape {
  std::size_t rows, in, out;
  bool mlp;
};

/// Every Linear of one GesIDNet forward at `batch` samples, from its config.
std::vector<LayerShape> gesidnet_shapes(const GesIDNetConfig& c, std::size_t batch) {
  std::vector<LayerShape> shapes;
  const auto stack = [&](std::size_t rows, std::size_t in, const std::vector<std::size_t>& mlp) {
    for (std::size_t h : mlp) {
      shapes.push_back({rows, in, h, true});
      in = h;
    }
    return in;
  };
  const auto set_abstraction = [&](std::size_t centroids, std::size_t in,
                                   const std::vector<ScaleSpec>& scales) {
    std::size_t out = 0;
    for (const ScaleSpec& s : scales) out += stack(batch * centroids * s.group_size, 3 + in, s.mlp);
    return out;
  };
  const std::size_t sa1 = set_abstraction(c.sa1_centroids, c.in_channels, c.sa1_scales);
  const std::size_t sa2 = set_abstraction(c.sa2_centroids, sa1, c.sa2_scales);
  const std::size_t c1 = stack(batch * c.sa1_centroids, 3 + sa1, c.level1_mlp);
  const std::size_t c2 = stack(batch * c.sa2_centroids, 3 + sa2, c.level2_mlp);
  if (c.enable_fusion) {
    shapes.push_back({batch, c2, c1, false});
    shapes.push_back({batch, c1, c2, false});
  }
  shapes.push_back({batch, c1, c.head1_hidden, false});
  shapes.push_back({batch, c.head1_hidden, c.num_classes, false});
  shapes.push_back({batch, c2, c.head2_hidden, false});
  shapes.push_back({batch, c.head2_hidden, c.num_classes, false});
  return shapes;
}

/// Layers and tensors for one shape, built once so the timed calls do only
/// the layer's own work.
struct LayerRig {
  LayerRig(const LayerShape& s, Rng& rng)
      : shape(s), linear(s.in, s.out, rng), bn(s.out, rng), x(s.rows, s.in), y(s.rows, s.out),
        dy(s.rows, s.out), dx(s.rows, s.in), dw(s.out, s.in) {
    x.randn(rng, 1.0);
    dy.randn(rng, 1.0);
    y = linear.forward(x, true);
  }
  double flops() const { return 2.0 * shape.rows * shape.in * shape.out; }

  LayerShape shape;
  nn::Linear linear;
  nn::BatchNorm1d bn;
  nn::ReLU relu;
  nn::Tensor x, y, dy, dx, dw;
};

void nn_probes(const GesIDNetConfig& config, Tracer& tracer, std::vector<Metric>& out) {
  Rng rng(0x9B0BE5, 7);
  std::vector<std::unique_ptr<LayerRig>> rigs;
  double flops = 0.0;
  for (const LayerShape& s : gesidnet_shapes(config, kTrainBatch)) {
    rigs.push_back(std::make_unique<LayerRig>(s, rng));
    flops += rigs.back()->flops();
  }
  const auto over_rigs = [&](auto&& fn) {
    return [&rigs, fn] {
      for (auto& r : rigs) fn(*r);
    };
  };
  const auto gflops = [&](double ms) { return flops / (ms * 1e-3) / 1e9; };
  out.push_back({"nn.matmul_bt.gflops",
                 gflops(median_ms(tracer, "nn.matmul_bt", over_rigs([](LayerRig& r) {
                   nn::matmul_bt(r.x, r.linear.weight().value, r.y);
                 }))),
                 "GFLOP/s"});
  out.push_back({"nn.matmul.gflops",
                 gflops(median_ms(tracer, "nn.matmul", over_rigs([](LayerRig& r) {
                   nn::matmul(r.dy, r.linear.weight().value, r.dx);
                 }))),
                 "GFLOP/s"});
  out.push_back({"nn.matmul_at.gflops",
                 gflops(median_ms(tracer, "nn.matmul_at", over_rigs([](LayerRig& r) {
                   nn::matmul_at(r.dy, r.x, r.dw);
                 }))),
                 "GFLOP/s"});
  out.push_back({"nn.linear_fwd_ms", median_ms(tracer, "nn.linear_fwd", over_rigs([](LayerRig& r) {
                   r.y = r.linear.forward(r.x, true);
                 })),
                 "ms"});
  out.push_back({"nn.linear_bwd_ms", median_ms(tracer, "nn.linear_bwd", over_rigs([](LayerRig& r) {
                   r.dx = r.linear.backward(r.dy);
                 })),
                 "ms"});

  // BatchNorm1d and ReLU follow the shared-MLP Linears only.
  std::vector<std::unique_ptr<LayerRig>> mlp_rigs;
  for (auto& r : rigs) {
    if (r->shape.mlp) mlp_rigs.push_back(std::move(r));
  }
  rigs = std::move(mlp_rigs);
  out.push_back({"nn.batchnorm_fwd_ms",
                 median_ms(tracer, "nn.batchnorm_fwd",
                           over_rigs([](LayerRig& r) { (void)r.bn.forward(r.y, true); })),
                 "ms"});
  out.push_back({"nn.batchnorm_bwd_ms",
                 median_ms(tracer, "nn.batchnorm_bwd",
                           over_rigs([](LayerRig& r) { (void)r.bn.backward(r.dy); })),
                 "ms"});
  out.push_back({"nn.relu_fwd_ms",
                 median_ms(tracer, "nn.relu_fwd",
                           over_rigs([](LayerRig& r) { (void)r.relu.forward(r.y, true); })),
                 "ms"});

  // Fused Linear→BN→ReLU at the serve batch: every shared-MLP layer of one
  // 16-sample forward.
  std::vector<std::unique_ptr<LayerRig>> serve_rigs;
  std::vector<std::unique_ptr<nn::FusedLinear>> fused;
  for (const LayerShape& s : gesidnet_shapes(config, kServeBatch)) {
    if (!s.mlp) continue;
    serve_rigs.push_back(std::make_unique<LayerRig>(s, rng));
    fused.push_back(
        std::make_unique<nn::FusedLinear>(serve_rigs.back()->linear, &serve_rigs.back()->bn, true));
  }
  out.push_back({"nn.fused_linear_ms", median_ms(tracer, "nn.fused_linear", [&] {
                   for (std::size_t i = 0; i < fused.size(); ++i) {
                     serve_rigs[i]->y = fused[i]->forward(serve_rigs[i]->x, false);
                   }
                 }),
                 "ms"});
}

std::vector<FeaturizedSample> featurize_n(const std::vector<GestureCloud>& clouds,
                                          const FeatureConfig& features, std::size_t n) {
  Rng rng(0xFEA7, 3);
  std::vector<FeaturizedSample> samples;
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(featurize(clouds[i % clouds.size()], features, rng));
  }
  return samples;
}

void gesidnet_probes(WorkloadRun& run, Tracer& tracer, std::vector<Metric>& out) {
  GesturePrintSystem& system = *run.system;
  GesIDNet& model = system.gesture_model();
  const GesIDNetConfig& config = model.config();
  const std::vector<FeaturizedSample> samples =
      featurize_n(run.clouds, system.config().prep.features, kTrainBatch);
  BatchedCloud b32, b16, b3, b1;
  make_batch(samples, 0, kTrainBatch, b32);
  make_batch(samples, 0, kServeBatch, b16);
  make_batch(samples, 0, 3, b3);
  make_batch(samples, 0, 1, b1);
  std::vector<int> labels(kTrainBatch);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % config.num_classes);
  }

  // Clones keep the workload's weights; train_step only accumulates
  // gradients into the clone.
  std::unique_ptr<PointCloudClassifier> trainee = model.clone();
  out.push_back({"gesidnet.train_step_ms",
                 median_ms(tracer, "gesidnet.train_step",
                           [&] { (void)trainee->train_step(b32, labels); }),
                 "ms"});
  std::unique_ptr<PointCloudClassifier> unfused = model.clone();
  out.push_back({"gesidnet.infer_ms.b3",
                 median_ms(tracer, "gesidnet.infer", [&] { (void)unfused->infer(b3); }), "ms"});
  std::unique_ptr<PointCloudClassifier> fused = model.clone();
  dynamic_cast<GesIDNet&>(*fused).fuse_for_inference(nn::QuantMode::kOff);
  out.push_back({"gesidnet.infer_fused_ms.b1",
                 median_ms(tracer, "gesidnet.infer_fused", [&] { (void)fused->infer(b1); }),
                 "ms"});
  out.push_back({"gesidnet.infer_fused_ms.b16",
                 median_ms(tracer, "gesidnet.infer_fused", [&] { (void)fused->infer(b16); }),
                 "ms"});

  // Standalone blocks with GesIDNet's shapes: FPS + ball-query grouping +
  // shared MLP + max-pool cost does not depend on the weights' values.
  Rng rng(0x5A5A, 11);
  SetAbstraction sa1(config.sa1_centroids, config.in_channels, config.sa1_scales, rng, "sa1");
  SetAbstraction sa2(config.sa2_centroids, sa1.out_channels(), config.sa2_scales, rng, "sa2");
  const BatchedCloud sa1_out = sa1.forward(b32, false);
  out.push_back({"gesidnet.sa1_ms",
                 median_ms(tracer, "gesidnet.sa1", [&] { (void)sa1.forward(b32, false); }), "ms"});
  out.push_back({"gesidnet.sa2_ms",
                 median_ms(tracer, "gesidnet.sa2", [&] { (void)sa2.forward(sa1_out, false); }),
                 "ms"});
  const std::size_t c1 = config.level1_mlp.back();
  const std::size_t c2 = config.level2_mlp.back();
  AttentionFusion fusion1(c1, rng, "fusion1");
  AttentionFusion fusion2(c2, rng, "fusion2");
  nn::Tensor r1(kTrainBatch, c1), n1(kTrainBatch, c1), r2(kTrainBatch, c2), n2(kTrainBatch, c2);
  for (nn::Tensor* t : {&r1, &n1, &r2, &n2}) t->randn(rng, 1.0);
  out.push_back({"gesidnet.fusion_ms", median_ms(tracer, "gesidnet.fusion", [&] {
                   (void)fusion1.forward(r1, n1);
                   (void)fusion2.forward(r2, n2);
                 }),
                 "ms"});
}

void pipeline_probes(WorkloadRun& run, Tracer& tracer, std::vector<Metric>& out) {
  const StreamSet& streams = run.streams;
  std::size_t frames = 0;
  std::size_t segments = 0;
  double push_ms = 0.0;
  std::vector<GestureSegment> kept;
  {
    auto span = tracer.span("pipeline.segmenter");
    for (const SessionStream& s : streams.sessions) {
      GestureSegmenter segmenter;
      const Clock::time_point t0 = Clock::now();
      for (const FrameCloud& f : s.recording.frames) {
        segmenter.push(f);
        segments += segmenter.completed_count();
        segmenter.clear_completed();
      }
      segmenter.finish();
      segments += segmenter.completed_count();
      push_ms += ms_since(t0);
      frames += s.recording.frames.size();
    }
    kept = GestureSegmenter::segment_all(streams.sessions.front().recording.frames);
  }
  out.push_back({"pipeline.segmenter_push_us", push_ms * 1e3 / static_cast<double>(frames), "us"});
  out.push_back({"pipeline.segment_recall",
                 static_cast<double>(segments) / static_cast<double>(streams.truth_gestures),
                 "ratio"});

  const Preprocessor preprocessor;
  std::size_t next = 0;
  out.push_back({"pipeline.process_segment_ms",
                 median_ms(tracer, "pipeline.process_segment",
                           [&] {
                             (void)preprocessor.process_segment(kept[next++ % kept.size()].frames);
                           }),
                 "ms"});
  Rng rng(0xFEA7, 5);
  const FeatureConfig& features = run.system->config().prep.features;
  next = 0;
  out.push_back({"pipeline.featurize_us",
                 1e3 * median_ms(tracer, "pipeline.featurize",
                                 [&] {
                                   (void)featurize(run.clouds[next++ % run.clouds.size()],
                                                   features, rng);
                                 }),
                 "us"});
}

void serve_probes(const RunOutcome& o, std::vector<Metric>& out) {
  const RungResult& nominal = *o.nominal();
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  for (const RungResult& r : o.ladder) {
    rejected += r.frames_rejected;
    shed += r.frames_shed;
  }
  out.push_back({"serve.push_frame_us", nominal.push_us.median(), "us"});
  out.push_back({"serve.pump_busy_ms", nominal.pump_busy_ms, "ms"});
  out.push_back({"serve.batch_occupancy",
                 nominal.batches == 0 ? 0.0
                                      : static_cast<double>(nominal.batch_segments) /
                                            static_cast<double>(nominal.batches),
                 "segments"});
  out.push_back({"serve.frames_rejected", static_cast<double>(rejected), "count"});
  out.push_back({"serve.frames_shed", static_cast<double>(shed), "count"});
  out.push_back({"serve.abstain_frac",
                 nominal.answered == 0 ? 0.0
                                       : static_cast<double>(nominal.abstained) /
                                             static_cast<double>(nominal.answered),
                 "fraction"});
  out.push_back({"serve.gen_late_ms", nominal.late_ms.median(), "ms"});
}

}  // namespace

void run_probes(WorkloadRun& run, Tracer& tracer, std::vector<Metric>& out) {
  auto span = tracer.span("probes");
  const RunOutcome& o = run.outcome;
  nn_probes(run.system->gesture_model().config(), tracer, out);
  gesidnet_probes(run, tracer, out);
  pipeline_probes(run, tracer, out);
  out.push_back({"system.evaluate_samples_per_s", o.evaluate_samples_per_s, "1/s"});
  serve_probes(o, out);
  out.push_back({"exec.threads", static_cast<double>(exec::ExecContext::global().threads()),
                 "count"});
  out.push_back({"datasets.generate_s", o.generate_s.median(), "s"});
  out.push_back({"trace.overhead_us",
                 (o.classify_traced_ms.median() - o.classify_untraced_ms.median()) * 1e3, "us"});
}

}  // namespace gp::perfbench
