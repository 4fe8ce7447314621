// Tests for the system-level extensions: open-set (unauthorized user)
// rejection, cross-environment fine-tuning, and full-system persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fnv.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "nn/quant.hpp"
#include "nn/serialize_nn.hpp"
#include "system/cross_validate.hpp"
#include "system/gestureprint.hpp"
#include "system/open_set.hpp"

namespace gp {
namespace {

Dataset make_dataset(std::size_t users, std::size_t gestures, std::size_t reps, int env = 1,
                     std::uint64_t user_seed = 1001) {
  DatasetScale scale;
  scale.max_users = users;
  scale.reps = reps;
  DatasetSpec spec = gestureprint_spec(env, scale);
  spec.gestures.resize(gestures);
  spec.user_seed = user_seed;
  return generate_dataset(spec);
}

GesturePrintConfig quick_config(std::size_t epochs = 8) {
  GesturePrintConfig config;
  config.training.epochs = epochs;
  config.training.batch_size = 16;
  config.prep.augmentation.copies = 2;
  return config;
}

Split split_by_pair(const Dataset& dataset, std::uint64_t seed = 77) {
  Rng rng(seed, 1);
  std::vector<int> strata;
  const int num_users = static_cast<int>(dataset.num_users());
  for (const auto& s : dataset.samples) strata.push_back(s.gesture * num_users + s.user);
  return stratified_split(strata, 0.2, rng);
}

TEST(OpenSet, RequiresFittedSystemAndCalibration) {
  GesturePrintSystem unfitted(quick_config());
  EXPECT_THROW(
      {
        OpenSetIdentifier wrapper(unfitted);
        (void)wrapper;
      },
      Error);

  const Dataset dataset = make_dataset(3, 2, 8);
  GesturePrintSystem system(quick_config(4));
  system.fit(dataset, split_by_pair(dataset).train);
  OpenSetIdentifier open_set(system);
  EXPECT_FALSE(open_set.calibrated());
  EXPECT_THROW(open_set.decide(dataset.samples[0].cloud), Error);
}

TEST(OpenSet, RejectsImpostorsAcceptsGenuine) {
  // Enroll 3 users; impostors are 3 *different* users (disjoint cohort via
  // another user_seed) performing the same gestures.
  const Dataset enrolled = make_dataset(3, 3, 12);
  const Dataset impostors_ds = make_dataset(3, 3, 4, 1, /*user_seed=*/9999);

  GesturePrintSystem system(quick_config());
  const Split split = split_by_pair(enrolled);
  system.fit(enrolled, split.train);

  OpenSetConfig os_config;
  os_config.target_false_rejection = 0.10;
  OpenSetIdentifier open_set(system, os_config);
  // Gallery + threshold calibration from the enrollment (training) split;
  // the biometric descriptor is model-free, so no overconfidence issue.
  open_set.calibrate(enrolled, split.train);
  EXPECT_TRUE(open_set.calibrated());
  EXPECT_GT(open_set.threshold(), 0.0);

  std::vector<GestureCloud> impostor_clouds;
  for (const auto& s : impostors_ds.samples) impostor_clouds.push_back(s.cloud);

  const OpenSetEvaluation eval = open_set.evaluate(enrolled, split.test, impostor_clouds);
  // Genuine users mostly accepted; impostors rejected clearly above chance.
  EXPECT_GT(eval.genuine_accept_rate, 0.6);
  EXPECT_GT(eval.impostor_reject_rate, 0.35);
  // Accepting decisions should be at least as accurate as unconditional ID.
  EXPECT_GT(eval.accepted_uia, 0.5);
}

TEST(OpenSet, StricterTargetTightensDistanceThreshold) {
  const Dataset dataset = make_dataset(3, 2, 10);
  GesturePrintSystem system(quick_config(6));
  const Split split = split_by_pair(dataset);
  system.fit(dataset, split.train);

  OpenSetConfig lenient;
  lenient.target_false_rejection = 0.02;
  OpenSetConfig strict;
  strict.target_false_rejection = 0.30;
  OpenSetIdentifier lenient_id(system, lenient);
  OpenSetIdentifier strict_id(system, strict);
  lenient_id.calibrate(dataset, split.train);
  strict_id.calibrate(dataset, split.train);
  // Accept-if-distance<=threshold: a stricter FRR target means rejecting
  // more genuine samples, i.e. a SMALLER distance threshold.
  EXPECT_GE(lenient_id.threshold(), strict_id.threshold());
  EXPECT_GT(strict_id.threshold(), 0.0);
}

TEST(FineTune, ImprovesCrossEnvironmentIdentification) {
  // Train in the meeting room; adapt with a few office recordings; office
  // UIA should improve (the §VII-2 mitigation).
  const Dataset meeting = make_dataset(3, 3, 12, /*env=*/1);
  const Dataset office = make_dataset(3, 3, 12, /*env=*/0);

  GesturePrintSystem system(quick_config());
  system.fit(meeting, split_by_pair(meeting).train);

  const Split office_split = split_by_pair(office, 31);
  const SystemEvaluation before = system.evaluate(office, office_split.test);
  system.fine_tune(office, office_split.train, /*epochs=*/4);
  const SystemEvaluation after = system.evaluate(office, office_split.test);

  // Fine-tuning with in-domain data must help identification (the paper's
  // cross-env pain point); allow slack for noise but demand net improvement.
  EXPECT_GT(after.uia, before.uia - 0.05);
  EXPECT_GT(after.uia, 0.5);
  EXPECT_GT(after.gra, 0.7);
}

TEST(FineTune, RejectsMismatchedLabelSpace) {
  const Dataset dataset = make_dataset(3, 3, 8);
  GesturePrintSystem system(quick_config(4));
  system.fit(dataset, split_by_pair(dataset).train);

  const Dataset other = make_dataset(4, 3, 4);  // different user count
  const auto idx = std::vector<std::size_t>{0, 1, 2, 3};
  EXPECT_THROW(system.fine_tune(other, idx, 2), InvalidArgument);
}

TEST(Persistence, SaveLoadReproducesDecisions) {
  const Dataset dataset = make_dataset(3, 3, 10);
  GesturePrintConfig config = quick_config(6);
  GesturePrintSystem original(config);
  const Split split = split_by_pair(dataset);
  original.fit(dataset, split.train);

  const std::string path = testing::TempDir() + "gp_system.bin";
  original.save(path);

  GesturePrintSystem restored(config);
  EXPECT_FALSE(restored.fitted());
  restored.load(path);
  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.num_gestures(), original.num_gestures());
  EXPECT_EQ(restored.num_users(), original.num_users());

  // Decisions agree on the evaluation split (logits are deterministic given
  // weights + the featurization seed stream, so compare hard labels on a
  // batch evaluation which uses identical streams per system instance).
  const SystemEvaluation eval_orig = original.evaluate(dataset, split.test);
  const SystemEvaluation eval_restored = restored.evaluate(dataset, split.test);
  EXPECT_NEAR(eval_restored.gra, eval_orig.gra, 0.1);
  EXPECT_NEAR(eval_restored.uia, eval_orig.uia, 0.15);
  EXPECT_GT(eval_restored.gra, 0.75);

  std::filesystem::remove(path);
}

TEST(Persistence, LoadRejectsModeMismatch) {
  const Dataset dataset = make_dataset(3, 2, 8);
  GesturePrintConfig config = quick_config(3);
  GesturePrintSystem serialized(config);
  serialized.fit(dataset, split_by_pair(dataset).train);
  const std::string path = testing::TempDir() + "gp_system_mode.bin";
  serialized.save(path);

  GesturePrintConfig parallel_config = config;
  parallel_config.mode = IdentificationMode::kParallel;
  GesturePrintSystem parallel(parallel_config);
  EXPECT_THROW(parallel.load(path), SerializationError);
  std::filesystem::remove(path);
}

// Every routing slot of a system file must hold an ID model: a file whose
// last slot flag is cleared (checksum recomputed, so only the flag is
// wrong) is malformed, not a system with a missing model.
TEST(Persistence, LoadRejectsEmptyIdModelSlot) {
  const Dataset dataset = make_dataset(3, 2, 8);
  GesturePrintConfig config = quick_config(2);
  GesturePrintSystem system(config);
  system.fit(dataset, split_by_pair(dataset).train);
  const std::string path = testing::TempDir() + "gp_system_slot.bin";
  system.save(path);

  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    blob = buf.str();
  }
  // The last slot is its flag byte followed by that model's parameters and
  // quant tables, right before the 8-byte checksum trailer.
  GesIDNet& last = *system.user_model(system.num_user_models() - 1);
  std::ostringstream slot(std::ios::binary);
  std::vector<nn::Parameter*> state = last.parameters();
  for (nn::Parameter* b : last.buffers()) state.push_back(b);
  nn::save_parameters(slot, state);
  nn::save_quant_tables(slot, last.collect_quant_tables());
  const std::size_t flag_at = blob.size() - 8 - slot.str().size() - 1;
  ASSERT_EQ(blob[flag_at], 1);
  blob[flag_at] = 0;
  blob.resize(blob.size() - 8);
  const std::uint64_t digest = fnv::hash_string(blob);
  for (int i = 0; i < 8; ++i) blob.push_back(static_cast<char>((digest >> (8 * i)) & 0xFF));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }

  GesturePrintSystem restored(config);
  EXPECT_THROW(restored.load(path), SerializationError);
  std::filesystem::remove(path);
}

TEST(CrossValidation, FoldsPartitionAndAggregate) {
  const Dataset dataset = make_dataset(3, 2, 10);
  GesturePrintConfig config = quick_config(3);
  const CrossValidationResult cv = cross_validate(dataset, config, /*k=*/2, /*seed=*/5);
  ASSERT_EQ(cv.folds.size(), 2u);
  // Aggregates are consistent with the folds.
  EXPECT_NEAR(cv.mean_gra, 0.5 * (cv.folds[0].gra + cv.folds[1].gra), 1e-12);
  EXPECT_NEAR(cv.mean_uia, 0.5 * (cv.folds[0].uia + cv.folds[1].uia), 1e-12);
  EXPECT_GE(cv.std_gra, 0.0);
  EXPECT_GT(cv.mean_gra, 0.5);  // 2-gesture task: far above 50% chance
  EXPECT_THROW(cross_validate(dataset, config, 1), InvalidArgument);
}

TEST(Persistence, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "gp_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a gp system file";
  }
  GesturePrintSystem system(quick_config(2));
  EXPECT_THROW(system.load(path), SerializationError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gp
