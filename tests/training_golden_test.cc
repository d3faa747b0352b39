// Golden digests of training at the paper's layer shape (§IV-B: k = 3 GGNN
// layers, m = 2 CGAN layers) on the Tiny world. The other goldens train one
// GGNN and one CGAN layer; these pin every bit that the deeper tape
// produces:
//   - Cggnn::Train: the epoch losses, every item representation and every
//     row of the fine-tuned entity table;
//   - a CGGNN-on CadrlRecommender::Fit: the per-epoch mean rewards.
// Both were recorded before the autograd tape started freeing nodes during
// Backward (DESIGN.md §17), so a change of any gradient sum, visiting order
// or freed-too-early buffer fails here.

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/cadrl.h"
#include "core/cggnn.h"
#include "data/generator.h"
#include "embed/transe.h"

namespace cadrl {
namespace core {
namespace {

// FNV-1a over 32-bit words: any changed bit changes it.
class Digest {
 public:
  void Add(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddFloat(float f) {
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    Add(bits);
  }
  void AddFloats(std::span<const float> values) {
    Add(static_cast<uint32_t>(values.size()));
    for (float f : values) AddFloat(f);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(TrainingGoldenTest, CggnnTrainAtPaperShape) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  embed::TransEOptions topt;
  topt.dim = 12;
  topt.epochs = 4;
  const embed::TransEModel transe =
      embed::TransEModel::Train(dataset.graph, topt);

  CggnnOptions options;
  options.ggnn_layers = 3;
  options.cgan_layers = 2;
  options.epochs = 3;
  options.pairs_per_epoch = 64;
  Cggnn cggnn(&dataset.graph, &transe, options);
  ASSERT_TRUE(cggnn.Train(dataset).ok());

  Digest losses, reps, entities;
  losses.AddFloats(cggnn.epoch_losses());
  for (kg::EntityId item :
       dataset.graph.EntitiesOfType(kg::EntityType::kItem)) {
    reps.AddFloats(cggnn.Representation(item));
  }
  for (kg::EntityId e = 0; e < dataset.graph.num_entities(); ++e) {
    entities.AddFloats(cggnn.EntityVector(e));
  }
  EXPECT_EQ(losses.value(), 0xefd0eafb1283ab66ULL);
  EXPECT_EQ(reps.value(), 0x54b96365d1473b4dULL);
  EXPECT_EQ(entities.value(), 0x2d0e184bd5085cc6ULL);
}

TEST(TrainingGoldenTest, FitWithCggnnAtPaperShape) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  CadrlOptions o;
  o.transe.dim = 12;
  o.transe.epochs = 4;
  o.cggnn.ggnn_layers = 3;
  o.cggnn.cgan_layers = 2;
  o.cggnn.epochs = 2;
  o.cggnn.pairs_per_epoch = 32;
  o.policy_hidden = 24;
  o.episodes_per_user = 2;
  o.seed = 37;
  CadrlRecommender model(o);
  ASSERT_TRUE(model.Fit(dataset).ok());

  Digest rewards;
  rewards.AddFloats(model.epoch_rewards());
  EXPECT_EQ(rewards.value(), 0xc87ba502ead8bde5ULL);
}

}  // namespace
}  // namespace core
}  // namespace cadrl
