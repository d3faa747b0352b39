#ifndef CADRL_INFER_COMPILED_MODEL_H_
#define CADRL_INFER_COMPILED_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "infer/policy_forward.h"
#include "infer/precision.h"
#include "infer/scoring.h"

namespace cadrl {
namespace core {
class EmbeddingStore;
class SharedPolicyNetworks;
}  // namespace core
namespace util {
class MmapFile;
}  // namespace util

namespace infer {

// Snapshot-compile options. `precision` selects the row format of the
// embedding-table sections (DESIGN.md §14); policy parameters are always
// f32 — the head/LSTM math is tiny next to the tables and keeping it f32
// keeps the policy forwards byte-identical across precisions for the same
// (dequantized) inputs.
struct CompiledModelOptions {
  Precision precision = Precision::kF32;
};

// Snapshot footprint by section, in bytes (RecommendService::Stats and
// every bench JSON dump report these — the memory claim is a measured
// number). These are the logical section sizes inside the shard blobs,
// whichever backing holds them.
struct ArenaBytes {
  size_t store_rows = 0;    // embedding-table row payloads (all tables)
  size_t store_scales = 0;  // per-row int8 scale/zero-point metadata
  size_t policy_params = 0; // both agents' parameters (always f32)
  size_t total() const { return store_rows + store_scales + policy_params; }
};

// Aggregate shard-set accounting for a shard-dir-backed model (all zero for
// a Build model). `shards_remapped`/`shards_reused` describe how this
// model was loaded relative to the `previous` model handed to the loader:
// a delta reload reuses the unchanged shards' mappings and maps only the
// republished ones.
struct ShardSetStats {
  int shard_count = 0;      // entity-range shards (excludes the meta shard)
  int shards_remapped = 0;  // freshly opened+mapped in this load
  int shards_reused = 0;    // mappings inherited from the previous model
  size_t mapped_bytes = 0;  // total bytes of all mappings (incl. meta)
  uint64_t generation = 0;  // manifest generation this model serves
  bool fallback_buffered = false;  // any mapping fell back to a heap read
};

// One entity-range shard blob of a model. The CRC is the blob's payload
// CRC, as recorded in the manifest — the delta loader's identity key for
// mapping reuse. A Build model has one, covering every row, with an empty
// file name and generation 0.
struct ShardSetInfo {
  std::string file;  // basename within the shard dir
  int64_t row_begin = 0;
  int64_t row_count = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;  // manifest generation that last wrote this shard
  bool remapped = false;    // false = mapping inherited from previous model
};

// A frozen, tape-free inference snapshot: every parameter the serving path
// needs — the embedding tables and both agents' policy parameters —
// encoded out of ag::Tensor into the shard layout of infer/shard_layout.h,
// plus the views the compiled forwards (scoring.h / policy_forward.h) read.
// Instances are immutable after construction and shared by std::shared_ptr,
// which is what makes RCU-style hot swap safe: a reader that grabbed the
// pointer keeps a complete consistent model alive for the whole request
// while a writer publishes a new snapshot (DESIGN.md §12).
//
// There is one representation with two backings. Build encodes an entity
// shard covering every row plus the meta shard into owned heap buffers;
// LoadFromShardDir maps the same blobs from a shard directory. Both bind
// through one binder (ShardBinder), so the two differ only in where the
// bytes live — a one-shard table binds flat, a multi-shard one as
// segments (infer/precision.h).
//
// The embedding tables live in the row format selected at Build
// (CompiledModelOptions::precision): f32, f16, or int8 rows with per-row
// binary16 scale/zero-point pairs. Quantization happens exactly once, in
// the shard encoder — training and the tape never see quantized values,
// and a request's acquired snapshot carries one row format end-to-end.
//
// CGGNN weights are deliberately NOT part of the snapshot: the GNN runs at
// train/load time and its outputs are already baked into the store's item
// rows, which Build encodes. The compiled CGGNN forward (cggnn_forward.h)
// exists for that bake step, not for per-request work.
class CompiledModel {
 public:
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  // Encodes the live store's tables (quantized per `options.precision`)
  // and the policy parameters into the blobs CompileToShardDir writes with
  // shard_rows >= num_entities, held in owned heap buffers. The sources may
  // be mutated or destroyed afterwards. Defined in shard_layout.cc, next
  // to the encoder and the binder.
  static std::shared_ptr<const CompiledModel> Build(
      const core::EmbeddingStore& store,
      const core::SharedPolicyNetworks& policy, float score_scale,
      const CompiledModelOptions& options);

  const ScoringView& scoring() const { return scoring_; }
  const PolicyParamsView& policy() const { return policy_; }
  float score_scale() const { return score_scale_; }
  Precision precision() const { return scoring_.precision; }
  // Per-section footprint in bytes (the logical sections of the blobs).
  const ArenaBytes& arena_bytes() const { return arena_bytes_; }

  // True when this model was loaded from a shard directory: the tables
  // and policy parameters point into file mappings rather than the owned
  // buffers of Build.
  bool mapped() const { return mapped_; }
  const ShardSetStats& shard_stats() const { return shard_stats_; }
  const std::vector<ShardSetInfo>& shard_infos() const { return shard_infos_; }
  // Payload CRC of the meta shard blob.
  uint32_t meta_crc() const { return meta_crc_; }

 private:
  friend class ShardBinder;  // binds blobs into instances (shard_layout.cc)

  CompiledModel() = default;

  ScoringView scoring_;
  PolicyParamsView policy_;
  ArenaBytes arena_bytes_;
  float score_scale_ = 1.0f;

  // The blobs' backing store, entity shards first and the meta shard last:
  // file mappings for a loaded model, owned buffers for a Build model.
  // Holding them pins the bytes for the model's lifetime — an acquired
  // snapshot pins its whole shard set, and a delta reload shares unchanged
  // mappings with the previous model via the shared_ptrs. The segment
  // vectors are the flat per-shard sub-tables a segmented RowTable (see
  // infer/precision.h) points into; they are sized once and never
  // reallocate.
  std::vector<std::shared_ptr<const util::MmapFile>> backings_;
  std::vector<RowTable> ent_segments_;
  std::vector<RowTable> raw_segments_;
  std::vector<RowTable> demand_segments_;
  bool mapped_ = false;
  ShardSetStats shard_stats_;
  std::vector<ShardSetInfo> shard_infos_;
  uint32_t meta_crc_ = 0;           // meta shard payload CRC (delta reuse)
  uint64_t meta_generation_ = 0;    // manifest generation of the meta shard
};

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_COMPILED_MODEL_H_
