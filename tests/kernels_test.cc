// Exact-match tests for the kernel layer (util/kernels.h). The kernels
// promise one *documented* summation order — 8 interleaved lanes, tail into
// lanes 0..r-1, fixed fold — independent of backend, block sizes and simd
// width. Each test below recomputes that order from the header's prose
// (not from kernels.cc) and demands bit equality from both backends, so a
// vectorization or blocking change that reorders any addition fails here
// before it can silently shift golden values elsewhere.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/embedding_store.h"
#include "data/generator.h"
#include "grad_check.h"
#include "util/kernels.h"

namespace cadrl {
namespace kernels {
namespace {

// Shape sweep: below one lane block, non-multiple, exactly one block,
// blocks + ragged tail, and a multi-block size.
const int kShapes[] = {1, 3, 8, 17, 64};

// Deterministic value generator (LCG); keeps the tests hermetic without
// <random> engines whose streams vary across standard libraries.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  float Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    // Map the top bits to [-1, 1) with a 2^-20 grid (exact in f32).
    const int32_t v = static_cast<int32_t>(state_ >> 43);
    return static_cast<float>(v) * (1.0f / 1048576.0f);
  }
  std::vector<float> Vec(int n) {
    std::vector<float> out(static_cast<size_t>(n));
    for (float& x : out) x = Next();
    return out;
  }

 private:
  uint64_t state_;
};

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " element " << i << ": " << a[i] << " vs " << b[i];
  }
}

// Runs `body` once per backend, restoring the ambient backend afterwards.
template <typename Fn>
void ForEachBackend(Fn body) {
  const Backend saved = ActiveBackend();
  for (Backend b : {Backend::kScalar, Backend::kBlocked}) {
    SetBackend(b);
    SCOPED_TRACE(BackendName(b));
    body();
  }
  SetBackend(saved);
}

// The documented reduction order, restated from util/kernels.h: 8 strided
// partial sums, ragged tail one term into lanes 0..r-1, fixed fold.
float RefReduce(const std::vector<float>& terms) {
  float s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = static_cast<int>(terms.size());
  const int main = n - n % 8;
  for (int i = 0; i < main; i += 8) {
    for (int l = 0; l < 8; ++l) s[l] += terms[static_cast<size_t>(i + l)];
  }
  for (int l = 0; l < n % 8; ++l) s[l] += terms[static_cast<size_t>(main + l)];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

float RefDot(const float* x, const float* y, int n) {
  std::vector<float> terms(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) terms[static_cast<size_t>(i)] = x[i] * y[i];
  return RefReduce(terms);
}

// ---------------------------------------------------------------------------
// Reduction kernels vs the documented order.
// ---------------------------------------------------------------------------

TEST(KernelsTest, DotMatchesDocumentedOrder) {
  ForEachBackend([] {
    Lcg rng(7);
    for (int n : kShapes) {
      const auto x = rng.Vec(n);
      const auto y = rng.Vec(n);
      EXPECT_EQ(Bits(Dot(x.data(), y.data(), n)),
                Bits(RefDot(x.data(), y.data(), n)))
          << "n=" << n;
    }
    // A long non-multiple length exercises several full lane blocks + tail.
    const auto x = rng.Vec(1003);
    const auto y = rng.Vec(1003);
    EXPECT_EQ(Bits(Dot(x.data(), y.data(), 1003)),
              Bits(RefDot(x.data(), y.data(), 1003)));
  });
}

TEST(KernelsTest, GemvMatchesPerRowDots) {
  ForEachBackend([] {
    Lcg rng(11);
    for (int m : kShapes) {
      for (int n : kShapes) {
        const auto a = rng.Vec(m * n);
        const auto x = rng.Vec(n);
        std::vector<float> y(static_cast<size_t>(m), 99.0f);
        Gemv(a.data(), m, n, x.data(), y.data());
        std::vector<float> want(static_cast<size_t>(m));
        for (int i = 0; i < m; ++i) {
          want[static_cast<size_t>(i)] = RefDot(a.data() + i * n, x.data(), n);
        }
        ExpectSameBits(y, want, "Gemv");

        // GemvAcc adds the same dots onto the prior contents.
        std::vector<float> acc = rng.Vec(m);
        std::vector<float> want_acc(static_cast<size_t>(m));
        for (int i = 0; i < m; ++i) {
          want_acc[static_cast<size_t>(i)] =
              acc[static_cast<size_t>(i)] + want[static_cast<size_t>(i)];
        }
        GemvAcc(a.data(), m, n, x.data(), acc.data());
        ExpectSameBits(acc, want_acc, "GemvAcc");
      }
    }
  });
}

TEST(KernelsTest, GemmNTAccMatchesRowDots) {
  ForEachBackend([] {
    Lcg rng(13);
    for (int m : kShapes) {
      for (int n : kShapes) {
        for (int k : kShapes) {
          const auto a = rng.Vec(m * k);
          const auto b = rng.Vec(n * k);
          std::vector<float> c = rng.Vec(m * n);
          std::vector<float> want = c;
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              want[static_cast<size_t>(i * n + j)] +=
                  RefDot(a.data() + i * k, b.data() + j * k, k);
            }
          }
          GemmNTAcc(a.data(), b.data(), c.data(), m, n, k);
          ExpectSameBits(c, want, "GemmNTAcc");
        }
      }
    }
  });
}

TEST(KernelsTest, NegSqDistRowsMatchesDocumentedOrder) {
  ForEachBackend([] {
    Lcg rng(17);
    for (int num : kShapes) {
      for (int d : kShapes) {
        const auto rows = rng.Vec(num * d);
        const auto u = rng.Vec(d);
        const auto r = rng.Vec(d);
        std::vector<float> out(static_cast<size_t>(num));
        NegSqDistRows(rows.data(), num, d, u.data(), r.data(), out.data());
        std::vector<float> want(static_cast<size_t>(num));
        for (int i = 0; i < num; ++i) {
          std::vector<float> terms(static_cast<size_t>(d));
          for (int j = 0; j < d; ++j) {
            const float diff = (u[static_cast<size_t>(j)] +
                                r[static_cast<size_t>(j)]) -
                               rows[static_cast<size_t>(i * d + j)];
            terms[static_cast<size_t>(j)] = diff * diff;
          }
          want[static_cast<size_t>(i)] = -RefReduce(terms);
        }
        ExpectSameBits(out, want, "NegSqDistRows");
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Element-wise / ascending-order kernels vs plain loops. These have no
// lane structure: the contract is the historical loop order.
// ---------------------------------------------------------------------------

TEST(KernelsTest, AxpyMatchesPlainLoop) {
  ForEachBackend([] {
    Lcg rng(19);
    for (int n : kShapes) {
      const float alpha = rng.Next();
      const auto x = rng.Vec(n);
      std::vector<float> y = rng.Vec(n);
      std::vector<float> want = y;
      for (int i = 0; i < n; ++i) {
        want[static_cast<size_t>(i)] += alpha * x[static_cast<size_t>(i)];
      }
      Axpy(n, alpha, x.data(), y.data());
      ExpectSameBits(y, want, "Axpy");
    }
  });
}

TEST(KernelsTest, GerAccMatchesOuterProductLoop) {
  ForEachBackend([] {
    Lcg rng(23);
    for (int m : kShapes) {
      for (int n : kShapes) {
        const auto x = rng.Vec(m);
        const auto y = rng.Vec(n);
        std::vector<float> a = rng.Vec(m * n);
        std::vector<float> want = a;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            want[static_cast<size_t>(i * n + j)] +=
                x[static_cast<size_t>(i)] * y[static_cast<size_t>(j)];
          }
        }
        GerAcc(m, n, x.data(), y.data(), a.data());
        ExpectSameBits(a, want, "GerAcc");
      }
    }
  });
}

TEST(KernelsTest, GemvTAccMatchesAscendingRowLoop) {
  ForEachBackend([] {
    Lcg rng(29);
    for (int m : kShapes) {
      for (int n : kShapes) {
        const auto a = rng.Vec(m * n);
        const auto x = rng.Vec(m);
        std::vector<float> y = rng.Vec(n);
        std::vector<float> want = y;
        for (int i = 0; i < m; ++i) {
          for (int j = 0; j < n; ++j) {
            want[static_cast<size_t>(j)] +=
                x[static_cast<size_t>(i)] * a[static_cast<size_t>(i * n + j)];
          }
        }
        GemvTAcc(a.data(), m, n, x.data(), y.data());
        ExpectSameBits(y, want, "GemvTAcc");
      }
    }
  });
}

TEST(KernelsTest, GemmAccMatchesIkjLoop) {
  ForEachBackend([] {
    Lcg rng(31);
    for (int m : kShapes) {
      for (int k : kShapes) {
        for (int p : kShapes) {
          const auto a = rng.Vec(m * k);
          const auto b = rng.Vec(k * p);
          std::vector<float> c = rng.Vec(m * p);
          std::vector<float> want = c;
          for (int i = 0; i < m; ++i) {
            for (int kk = 0; kk < k; ++kk) {
              for (int j = 0; j < p; ++j) {
                want[static_cast<size_t>(i * p + j)] +=
                    a[static_cast<size_t>(i * k + kk)] *
                    b[static_cast<size_t>(kk * p + j)];
              }
            }
          }
          GemmAcc(a.data(), b.data(), c.data(), m, k, p);
          ExpectSameBits(c, want, "GemmAcc");
        }
      }
    }
    // Larger than one cache block in both m and k so the blocked backend's
    // tiling actually splits; the ascending-k order must survive it.
    const int m = 70, k = 300, p = 5;
    const auto a = rng.Vec(m * k);
    const auto b = rng.Vec(k * p);
    std::vector<float> c(static_cast<size_t>(m * p), 0.0f);
    std::vector<float> want = c;
    for (int i = 0; i < m; ++i) {
      for (int kk = 0; kk < k; ++kk) {
        for (int j = 0; j < p; ++j) {
          want[static_cast<size_t>(i * p + j)] +=
              a[static_cast<size_t>(i * k + kk)] *
              b[static_cast<size_t>(kk * p + j)];
        }
      }
    }
    GemmAcc(a.data(), b.data(), c.data(), m, k, p);
    ExpectSameBits(c, want, "GemmAcc(blocked split)");
  });
}

TEST(KernelsTest, GemmTNAccMatchesAscendingRowLoop) {
  ForEachBackend([] {
    Lcg rng(37);
    for (int m : kShapes) {
      for (int k : kShapes) {
        for (int p : kShapes) {
          const auto a = rng.Vec(m * k);
          const auto b = rng.Vec(m * p);
          std::vector<float> c = rng.Vec(k * p);
          std::vector<float> want = c;
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < k; ++j) {
              for (int q = 0; q < p; ++q) {
                want[static_cast<size_t>(j * p + q)] +=
                    a[static_cast<size_t>(i * k + j)] *
                    b[static_cast<size_t>(i * p + q)];
              }
            }
          }
          GemmTNAcc(a.data(), b.data(), c.data(), m, k, p);
          ExpectSameBits(c, want, "GemmTNAcc");
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Backend plumbing.
// ---------------------------------------------------------------------------

TEST(KernelsTest, SetBackendRoundTrips) {
  const Backend saved = ActiveBackend();
  SetBackend(Backend::kScalar);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);
  EXPECT_STREQ(BackendName(ActiveBackend()), "scalar");
  SetBackend(Backend::kBlocked);
  EXPECT_EQ(ActiveBackend(), Backend::kBlocked);
  EXPECT_STREQ(BackendName(ActiveBackend()), "blocked");
  SetBackend(saved);
}

TEST(KernelsTest, BackendsAreBitIdentical) {
  // Direct scalar-vs-blocked comparison on an awkward shape (every kernel;
  // the per-kernel tests above already imply this through the shared
  // reference, but this one fails with a clearer message on divergence).
  Lcg rng(41);
  const int m = 17, n = 23, k = 19;
  const auto a = rng.Vec(m * k);
  const auto b = rng.Vec(n * k);
  const auto x = rng.Vec(k);
  const Backend saved = ActiveBackend();

  SetBackend(Backend::kScalar);
  std::vector<float> y_s(static_cast<size_t>(m));
  Gemv(a.data(), m, k, x.data(), y_s.data());
  std::vector<float> c_s(static_cast<size_t>(m * n), 0.0f);
  GemmNTAcc(a.data(), b.data(), c_s.data(), m, n, k);

  SetBackend(Backend::kBlocked);
  std::vector<float> y_b(static_cast<size_t>(m));
  Gemv(a.data(), m, k, x.data(), y_b.data());
  std::vector<float> c_b(static_cast<size_t>(m * n), 0.0f);
  GemmNTAcc(a.data(), b.data(), c_b.data(), m, n, k);

  SetBackend(saved);
  ExpectSameBits(y_s, y_b, "Gemv scalar vs blocked");
  ExpectSameBits(c_s, c_b, "GemmNTAcc scalar vs blocked");
}

// ---------------------------------------------------------------------------
// MatMul backward regression (tests the kernel-routed gradients, including
// the rank-1 dB product that previously read pa->data out of position).
// ---------------------------------------------------------------------------

TEST(KernelsTest, MatMulRank1GradientsMatchNumeric) {
  ForEachBackend([] {
    Lcg rng(43);
    ag::Tensor a = ag::Tensor::FromVector(rng.Vec(3 * 5), {3, 5});
    ag::Tensor b = ag::Tensor::FromVector(rng.Vec(5), {5});
    cadrl::testing::ExpectGradientsMatch(
        {a, b}, [&] { return ag::Sum(ag::MatMul(a, b)); });
  });
}

TEST(KernelsTest, MatMulRank2GradientsMatchNumeric) {
  ForEachBackend([] {
    Lcg rng(47);
    ag::Tensor a = ag::Tensor::FromVector(rng.Vec(4 * 3), {4, 3});
    ag::Tensor b = ag::Tensor::FromVector(rng.Vec(3 * 6), {3, 6});
    cadrl::testing::ExpectGradientsMatch(
        {a, b}, [&] { return ag::Sum(ag::MatMul(a, b)); });
  });
}

// ---------------------------------------------------------------------------
// Batched scoring property: ScoreUserEntities == per-entity ScoreUserEntity
// bit for bit, in every score mode, and UserScoreMemo serves the same bits.
// ---------------------------------------------------------------------------

TEST(KernelsTest, BatchedScoringBitIdenticalToScalarScoring) {
  const data::Dataset dataset =
      data::MustGenerateDataset(data::SyntheticConfig::Tiny());
  embed::TransEOptions topt;
  topt.dim = 12;
  topt.epochs = 2;
  const embed::TransEModel transe =
      embed::TransEModel::Train(dataset.graph, topt);
  core::EmbeddingStore store(&dataset.graph, &transe);

  const kg::EntityId user = dataset.users[0];
  std::vector<kg::EntityId> entities;
  for (kg::EntityId e = 0;
       e < static_cast<kg::EntityId>(dataset.graph.num_entities()) &&
       entities.size() < 97;
       e += 3) {
    entities.push_back(e);
  }
  ASSERT_GT(entities.size(), 10u);

  using Mode = core::EmbeddingStore::ScoreMode;
  for (Mode mode : {Mode::kTranslation, Mode::kDotProduct, Mode::kEnsemble,
                    Mode::kRawTranslation, Mode::kDemandTranslation}) {
    store.set_score_mode(mode);
    ForEachBackend([&] {
      std::vector<float> batched(entities.size());
      store.ScoreUserEntities(user, entities, batched);
      for (size_t i = 0; i < entities.size(); ++i) {
        ASSERT_EQ(Bits(batched[i]),
                  Bits(store.ScoreUserEntity(user, entities[i])))
            << "mode " << static_cast<int>(mode) << " entity " << entities[i];
      }
      // The memo must serve the same bits whether an entity comes in cold
      // through a batch, cold through Score(), or warm from the cache.
      core::UserScoreMemo memo(&store, user);
      const float first = memo.Score(entities[4]);
      ASSERT_EQ(Bits(first), Bits(batched[4]));
      std::vector<float> via_memo(entities.size());
      memo.ScoreBatch(entities, via_memo);
      ExpectSameBits(via_memo, batched, "UserScoreMemo::ScoreBatch");
      ASSERT_EQ(Bits(memo.Score(entities[7])), Bits(batched[7]));
    });
  }
}

// ---------------------------------------------------------------------------
// Quantized row formats (binary16 / int8 with per-row scale+zero-point).
// The contract under test: every fused quantized kernel is bit-identical to
// dequantizing the rows first and running the f32 kernel — the shared
// DequantQ8/F16ToF32 expression makes fusion a pure layout change.
// ---------------------------------------------------------------------------

// Lengths covering every n % 8 residue plus multi-block sizes.
const int kQuantLens[] = {1, 2, 3, 4, 5, 6, 7, 8,
                          9, 10, 11, 12, 13, 14, 15, 64, 131};
// Row counts straddling the blocked backend's kBlockM=32 tile edge.
const int kQuantRows[] = {1, 7, 31, 32, 33, 65};

// Encodes `rows x n` f32 values as int8 rows + decoded per-row scale/zp.
struct Q8Table {
  std::vector<int8_t> q;
  std::vector<float> scales, zps;
  std::vector<float> dequant;  // DequantizeRowQ8 of every row

  Q8Table(const std::vector<float>& x, int rows, int n) {
    q.resize(x.size());
    scales.resize(static_cast<size_t>(rows));
    zps.resize(static_cast<size_t>(rows));
    dequant.resize(x.size());
    for (int i = 0; i < rows; ++i) {
      uint16_t scale_bits = 0, zp_bits = 0;
      QuantizeRowQ8(x.data() + static_cast<size_t>(i) * n, n,
                    q.data() + static_cast<size_t>(i) * n, &scale_bits,
                    &zp_bits);
      scales[static_cast<size_t>(i)] = F16ToF32(scale_bits);
      zps[static_cast<size_t>(i)] = F16ToF32(zp_bits);
      DequantizeRowQ8(q.data() + static_cast<size_t>(i) * n,
                      scales[static_cast<size_t>(i)],
                      zps[static_cast<size_t>(i)], n,
                      dequant.data() + static_cast<size_t>(i) * n);
    }
  }
};

TEST(KernelsTest, F16ConversionRoundTripsAndSpecials) {
  // Exactly representable values survive a f32 -> f16 -> f32 round trip.
  for (float x : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 1024.0f, 65504.0f,
                  0.0009765625f}) {
    EXPECT_EQ(F16ToF32(F32ToF16(x)), x) << x;
  }
  // Conversion is idempotent: re-encoding a decoded f16 changes nothing.
  Lcg rng(53);
  for (int i = 0; i < 200; ++i) {
    const float x = rng.Next() * 100.0f;
    const uint16_t h = F32ToF16(x);
    EXPECT_EQ(F32ToF16(F16ToF32(h)), h);
    // Round-to-nearest-even: error bounded by half a ulp (2^-11 relative
    // for normal values).
    EXPECT_LE(std::abs(F16ToF32(h) - x), std::abs(x) * 0x1p-11f + 0x1p-24f);
  }
  // Overflow saturates to infinity, sign preserved.
  EXPECT_EQ(F16ToF32(F32ToF16(1.0e6f)),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(F16ToF32(F32ToF16(-1.0e6f)),
            -std::numeric_limits<float>::infinity());
}

TEST(KernelsTest, QuantizeRowQ8RoundTripErrorBounds) {
  Lcg rng(59);
  for (int n : kQuantLens) {
    // Random, constant-offset-dominated, and scaled rows.
    std::vector<std::vector<float>> cases;
    cases.push_back(rng.Vec(n));
    {
      std::vector<float> offset = rng.Vec(n);
      for (float& v : offset) v = 300.0f + 0.001f * v;  // tiny spread
      cases.push_back(std::move(offset));
    }
    {
      std::vector<float> wide = rng.Vec(n);
      for (float& v : wide) v *= 1000.0f;
      cases.push_back(std::move(wide));
    }
    for (const auto& x : cases) {
      const Q8Table t(x, 1, n);
      // Error bound: half a code step, plus the worst-case clamp shift from
      // rounding the zero-point to binary16 (|zp| * 2^-11 code units,
      // doubled for slack).
      const float bound =
          t.scales[0] * (0.5f + std::abs(t.zps[0]) * 0x1p-10f) + 1e-6f;
      for (int i = 0; i < n; ++i) {
        EXPECT_LE(std::abs(t.dequant[static_cast<size_t>(i)] -
                           x[static_cast<size_t>(i)]),
                  bound)
            << "n=" << n << " i=" << i;
      }
    }
  }
  // Exactness guarantees: an all-zero row decodes to exact zeros and a
  // constant row to the f16 rounding of the constant.
  for (int n : {1, 5, 8, 13}) {
    const std::vector<float> zeros(static_cast<size_t>(n), 0.0f);
    const Q8Table tz(zeros, 1, n);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(tz.dequant[static_cast<size_t>(i)]), Bits(0.0f));
    }
    const std::vector<float> cst(static_cast<size_t>(n), 0.3137f);
    const Q8Table tc(cst, 1, n);
    const float want = F16ToF32(F32ToF16(0.3137f));
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(tc.dequant[static_cast<size_t>(i)]), Bits(want));
    }
  }
}

TEST(KernelsTest, DotQ8AndDotF16MatchDequantizedDot) {
  ForEachBackend([] {
    Lcg rng(61);
    for (int n : kQuantLens) {
      const auto x = rng.Vec(n);
      const auto raw = rng.Vec(n);
      const Q8Table t(raw, 1, n);
      EXPECT_EQ(Bits(DotQ8(x.data(), t.q.data(), t.scales[0], t.zps[0], n)),
                Bits(Dot(x.data(), t.dequant.data(), n)))
          << "DotQ8 n=" << n;

      std::vector<uint16_t> h(static_cast<size_t>(n));
      QuantizeRowF16(raw.data(), n, h.data());
      std::vector<float> deq(static_cast<size_t>(n));
      DequantizeRowF16(h.data(), n, deq.data());
      EXPECT_EQ(Bits(DotF16(x.data(), h.data(), n)),
                Bits(Dot(x.data(), deq.data(), n)))
          << "DotF16 n=" << n;
    }
  });
}

TEST(KernelsTest, GemvQ8AndF16MatchDequantizedGemv) {
  ForEachBackend([] {
    Lcg rng(67);
    for (int m : kQuantRows) {
      for (int n : {5, 8, 11, 24}) {
        const auto x = rng.Vec(n);
        const auto raw = rng.Vec(m * n);
        const Q8Table t(raw, m, n);
        std::vector<float> got(static_cast<size_t>(m), 99.0f);
        GemvQ8(t.q.data(), t.scales.data(), t.zps.data(), m, n, x.data(),
               got.data());
        std::vector<float> want(static_cast<size_t>(m));
        Gemv(t.dequant.data(), m, n, x.data(), want.data());
        ExpectSameBits(got, want, "GemvQ8");

        std::vector<uint16_t> h(raw.size());
        QuantizeRowF16(raw.data(), m * n, h.data());
        std::vector<float> deq(raw.size());
        DequantizeRowF16(h.data(), m * n, deq.data());
        GemvF16(h.data(), m, n, x.data(), got.data());
        Gemv(deq.data(), m, n, x.data(), want.data());
        ExpectSameBits(got, want, "GemvF16");
      }
    }
  });
}

TEST(KernelsTest, NegSqDistRowsQ8AndF16MatchDequantizedRows) {
  ForEachBackend([] {
    Lcg rng(73);
    for (int num : kQuantRows) {
      for (int d : {5, 8, 12, 15, 24}) {
        const auto u = rng.Vec(d);
        const auto r = rng.Vec(d);
        const auto raw = rng.Vec(num * d);
        const Q8Table t(raw, num, d);
        std::vector<float> got(static_cast<size_t>(num));
        std::vector<float> want(static_cast<size_t>(num));
        NegSqDistRowsQ8(t.q.data(), t.scales.data(), t.zps.data(), num, d,
                        u.data(), r.data(), got.data());
        NegSqDistRows(t.dequant.data(), num, d, u.data(), r.data(),
                      want.data());
        ExpectSameBits(got, want, "NegSqDistRowsQ8");

        std::vector<uint16_t> h(raw.size());
        QuantizeRowF16(raw.data(), num * d, h.data());
        std::vector<float> deq(raw.size());
        DequantizeRowF16(h.data(), num * d, deq.data());
        NegSqDistRowsF16(h.data(), num, d, u.data(), r.data(), got.data());
        NegSqDistRows(deq.data(), num, d, u.data(), r.data(), want.data());
        ExpectSameBits(got, want, "NegSqDistRowsF16");
      }
    }
  });
}

TEST(KernelsTest, QuantizedScalarVsBlockedBitIdentical) {
  // Direct scalar-vs-blocked comparison on awkward shapes: the dequantized
  // references above already imply it (the f32 kernels are backend-exact),
  // but this fails with a clearer message on divergence.
  Lcg rng(79);
  const int m = 33, d = 13;
  const auto x = rng.Vec(d);
  const auto u = rng.Vec(d);
  const auto r = rng.Vec(d);
  const auto raw = rng.Vec(m * d);
  const Q8Table t(raw, m, d);
  const Backend saved = ActiveBackend();

  SetBackend(Backend::kScalar);
  const float dot_s = DotQ8(x.data(), t.q.data(), t.scales[0], t.zps[0], d);
  std::vector<float> dist_s(static_cast<size_t>(m));
  NegSqDistRowsQ8(t.q.data(), t.scales.data(), t.zps.data(), m, d, u.data(),
                  r.data(), dist_s.data());

  SetBackend(Backend::kBlocked);
  const float dot_b = DotQ8(x.data(), t.q.data(), t.scales[0], t.zps[0], d);
  std::vector<float> dist_b(static_cast<size_t>(m));
  NegSqDistRowsQ8(t.q.data(), t.scales.data(), t.zps.data(), m, d, u.data(),
                  r.data(), dist_b.data());

  SetBackend(saved);
  EXPECT_EQ(Bits(dot_s), Bits(dot_b));
  ExpectSameBits(dist_s, dist_b, "NegSqDistRowsQ8 scalar vs blocked");
}

}  // namespace
}  // namespace kernels
}  // namespace cadrl
