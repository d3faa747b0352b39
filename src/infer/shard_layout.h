#ifndef CADRL_INFER_SHARD_LAYOUT_H_
#define CADRL_INFER_SHARD_LAYOUT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "infer/compiled_model.h"
#include "infer/policy_forward.h"
#include "infer/scoring.h"
#include "util/status.h"

// Relocatable on-disk snapshot format: a model compiled into a directory of
// entity-range shard files plus one meta shard, published by an atomically
// renamed manifest (DESIGN.md §16). Loading is open + mmap + validate — no
// parse, no per-row copy — so reload latency is independent of arena size,
// and a fine-tuned checkpoint that changed only some entity ranges
// republishes (and remaps) only those shards. It is also the in-memory
// format: CompiledModel::Build encodes the same blobs (one entity shard
// covering every row, plus the meta shard) into heap buffers.
//
// Directory layout:
//   MANIFEST.cadrl          text manifest (CRC-footered, written last)
//   shard-NNNNN.cadrl       entity-range shard: rows [N*shard_rows, ...)
//                           of the entities / raw / demand tables
//   meta.cadrl              relations + categories tables and the f32
//                           policy-parameter blob
//
// Each shard file is a binary blob: a fixed 64-byte ShardHeader, a section
// table, then page-aligned (4096) section payloads, with the standard
// util/io durability footer appended by WriteFileAtomic. All references are
// offsets from the start of the file — no pointers — so a mapping is valid
// at any base address (relocatable). The manifest records every shard's
// payload CRC; that CRC is the delta identity: a writer skips shards whose
// newly encoded bytes CRC-match the manifest, and a loader reuses the
// previous model's mapping for shards whose manifest entry is unchanged.
namespace cadrl {
namespace infer {

// On-disk header of one shard file (host-endian; the version field doubles
// as an endianness sentinel). `header_crc` covers the header with this
// field zeroed, followed by the section table.
struct ShardHeader {
  char magic[8];          // "CADRLSH1"
  uint32_t version;       // 1
  uint32_t header_crc;
  uint8_t precision;      // infer::Precision of the row sections
  uint8_t kind;           // 0 = entity-range shard, 1 = meta shard
  uint16_t num_sections;
  uint32_t dim;
  int64_t row_begin;      // first global entity row (entity shards; 0 meta)
  int64_t row_count;      // rows in this shard (entity shards; 0 meta)
  uint64_t payload_bytes; // total blob size, footer excluded
  uint64_t reserved[2];   // zero
};
static_assert(sizeof(ShardHeader) == 64, "shard header is 64 bytes");

// One section of a shard file. `offset` is from the start of the file and
// 4096-aligned, so a page-aligned mapping base gives page-aligned sections.
struct ShardSection {
  uint32_t table;   // 0 entities, 1 raw, 2 demand, 3 relations,
                    // 4 categories, 5 policy
  uint32_t part;    // 0 row payload, 1 q8 scales, 2 q8 zero points,
                    // 3 f32 parameter blob
  uint64_t offset;
  uint64_t size;    // bytes
  uint64_t rows;    // rows covered (row-indexed parts; 0 for the blob)
};
static_assert(sizeof(ShardSection) == 32, "shard section is 32 bytes");

inline constexpr char kShardMagic[8] = {'C', 'A', 'D', 'R', 'L', 'S', 'H',
                                        '1'};
inline constexpr uint32_t kShardVersion = 1;
inline constexpr uint64_t kShardSectionAlign = 4096;
inline constexpr char kShardManifestName[] = "MANIFEST.cadrl";
inline constexpr char kShardMetaName[] = "meta.cadrl";

struct ShardWriteOptions {
  // Entity rows per shard; every shard but the last holds exactly this
  // many. Smaller values mean finer-grained delta republish at the cost of
  // more files/mappings.
  int64_t shard_rows = 4096;
  // Parallelism of the encode+write fan-out (0 = one per hardware thread).
  int threads = 0;
};

struct ShardWriteStats {
  int shards_total = 0;     // entity shards in the directory
  int shards_written = 0;   // entity shards actually (re)written
  int shards_reused = 0;    // entity shards skipped (CRC-identical)
  bool meta_written = false;
  bool manifest_written = false;
  uint64_t generation = 0;  // manifest generation after the compile
  size_t bytes_written = 0; // payload bytes of the files written
};

struct ShardLoadOptions {
  // Re-CRC every shard's full payload against the manifest (O(bytes));
  // default trusts the cheap header CRC + WriteFileAtomic's footer
  // structure, keeping the load zero-parse. CADRL_SHARD_VERIFY=1 turns it
  // on process-wide (see ShardVerifyFromEnv).
  bool verify_payload = false;
};

// Compiles one f32 view of the model (the live store's tables + policy
// parameters) into `dir`, encoding rows to `options.precision` with the
// shard encoder CompiledModel::Build also uses — with shard_rows >=
// num_entities the files hold the same bytes as a Build model's blobs, so
// byte-identity of outputs is structural. Creates `dir` if missing.
// Delta-aware: shards whose encoded payload CRC-matches the existing
// manifest entry are not rewritten and keep their recorded generation. The
// manifest is written (atomically) last, only if anything changed.
Status CompileToShardDir(const ScoringView& view,
                         const PolicyParamsView& policy, float score_scale,
                         const CompiledModelOptions& options,
                         const std::string& dir,
                         const ShardWriteOptions& write_options,
                         ShardWriteStats* stats);

// Loads a shard directory as an immutable CompiledModel whose tables and
// policy parameters point into read-only mappings: open + map + validate,
// no parse step and no per-row copies. When `previous` is a mapped model
// from the same directory lineage, shards whose manifest entry (file, CRC,
// row range, generation) is unchanged reuse the previous model's mapping —
// a delta reload maps only the republished shards. The blobs bind through
// the same binder as a Build model's, so the two answer alike byte for
// byte.
Status LoadFromShardDir(const std::string& dir, const ShardLoadOptions& options,
                        std::shared_ptr<const CompiledModel> previous,
                        std::shared_ptr<const CompiledModel>* out);

// CADRL_SHARD_VERIFY=1: default ShardLoadOptions::verify_payload to true.
bool ShardVerifyFromEnv();

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_SHARD_LAYOUT_H_
