#ifndef CADRL_INFER_PRECISION_H_
#define CADRL_INFER_PRECISION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

// Row-format selection for the compiled inference snapshot (DESIGN.md §14).
// A snapshot's embedding tables are stored in exactly one of three formats,
// chosen at CompiledModel::Build time; training and the autograd tape are
// always f32, so precision is purely a serving-arena property. Every
// consumer goes through the dispatch helpers here (or the precision-aware
// kernels in util/kernels.h), which keeps one snapshot's row format
// end-to-end consistent for a request regardless of hot swaps.
namespace cadrl {
namespace infer {

enum class Precision : uint8_t {
  kF32 = 0,   // plain float rows (the training format)
  kF16 = 1,   // IEEE binary16 rows, 2 bytes/element
  kInt8 = 2,  // int8 rows + per-row binary16 (scale, zero_point)
};

const char* PrecisionName(Precision p);

// Parses "f32" / "f16" / "int8"; returns false (and leaves *out untouched)
// for anything else.
bool ParsePrecision(const std::string& value, Precision* out);

// Default snapshot precision from the CADRL_PRECISION environment variable;
// unset/unknown values fall back to kF32 (with a warning for unknown).
Precision PrecisionFromEnv();

// One embedding table in the owning view's row format. Exactly the pointer
// set matching the precision is non-null; all pointers borrow the
// snapshot's shard blobs.
//
// A table is either *flat* (the pointers cover every row contiguously — a
// snapshot with one entity shard) or *sharded* (rows live in
// `num_segments` sub-tables of `segment_rows` rows each, the last possibly
// shorter; the sub-tables are flat RowTables borrowing separate shard
// blobs).
// All row access goes through ResolveRow below, so consumers never assume
// contiguity; flat tables keep their zero-indirection fast path.
struct RowTable {
  const float* f32 = nullptr;       // num_rows x dim
  const uint16_t* f16 = nullptr;    // num_rows x dim binary16 bits
  const int8_t* q8 = nullptr;       // num_rows x dim int8 codes
  const uint16_t* q8_scale = nullptr;  // per-row binary16 scale
  const uint16_t* q8_zp = nullptr;     // per-row binary16 zero point

  // Sharded layout: row r lives in segments[r / segment_rows] at local
  // index r % segment_rows. Null/0 for flat tables.
  const RowTable* segments = nullptr;
  int num_segments = 0;
  int64_t segment_rows = 0;

  bool sharded() const { return segments != nullptr; }
  bool present() const {
    return f32 != nullptr || f16 != nullptr || q8 != nullptr ||
           segments != nullptr;
  }
  // The row payload pointer regardless of format — unique per arena (for a
  // sharded table, the segment array is unique per model), which is what
  // makes it usable as a snapshot-epoch key (batch grouping).
  const void* data() const {
    if (segments != nullptr) return segments;
    if (f32 != nullptr) return f32;
    if (f16 != nullptr) return f16;
    return q8;
  }
};

// Maps a global row index to the flat sub-table holding it, rewriting *idx
// to the segment-local row. Identity (and branch-predictable) for flat
// tables, so the contiguous layout pays nothing.
inline const RowTable& ResolveRow(const RowTable& t, int64_t* idx) {
  if (t.segments == nullptr) return t;
  const int64_t s = *idx / t.segment_rows;
  *idx -= s * t.segment_rows;
  return t.segments[s];
}

// Decoded per-row int8 metadata for row `idx`: {scale, zero_point} as f32.
struct RowQuant {
  float scale = 1.0f;
  float zp = 0.0f;
};
RowQuant RowQuantOf(const RowTable& t, int64_t idx);

// Writes row `idx` of `t` as f32 into `dst` (dim floats): a plain copy for
// f32 tables, a dequantization otherwise. The dequantized values are
// bit-identical to what the fused kernels accumulate, so materialize-then-
// f32-kernel and fused-quantized-kernel paths agree byte for byte.
void MaterializeRow(const RowTable& t, Precision p, int dim, int64_t idx,
                    float* dst);

// Row `idx` of `t` as an f32 span: zero-copy for f32 tables, otherwise
// dequantized into *slot (resized to dim). The span borrows either the
// table or *slot — callers keep one live slot per concurrently-needed row.
std::span<const float> RowSpan(const RowTable& t, Precision p, int dim,
                               int64_t idx, std::vector<float>* slot);

}  // namespace infer
}  // namespace cadrl

#endif  // CADRL_INFER_PRECISION_H_
