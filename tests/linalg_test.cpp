// Unit tests for the dense matrix helpers and the incremental SVD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "workload/corpus.h"

namespace at::linalg {
namespace {

TEST(Matrix, IndexingRoundTrip) {
  Matrix m(3, 4);
  m(1, 2) = 7.5;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, RowPointerIsContiguous) {
  Matrix m(2, 3);
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  m(1, 2) = 3.0;
  const double* r = m.row(1);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 3.0);
}

TEST(Matrix, AppendRowGrowsAndChecksWidth) {
  Matrix m;
  m.append_row({1.0, 2.0});
  m.append_row({3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_THROW(m.append_row({1.0}), std::invalid_argument);
}

TEST(VectorOps, DotNormDistance) {
  const double a[3] = {1.0, 2.0, 2.0};
  const double b[3] = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(dot(a, b, 3), 4.0);
  EXPECT_DOUBLE_EQ(norm2(a, 3), 3.0);
  EXPECT_DOUBLE_EQ(distance(a, a, 3), 0.0);
  EXPECT_NEAR(distance(a, b, 3), std::sqrt(1 + 4 + 1), 1e-12);
}

SparseDataset rank1_dataset(std::size_t rows, std::size_t cols) {
  // value(r, c) = u_r * v_c — exactly rank 1, fully observed.
  SparseDataset ds;
  ds.rows = rows;
  ds.cols = cols;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const double u = 1.0 + 0.1 * r;
      const double v = 0.5 + 0.2 * c;
      ds.entries.push_back({r, c, u * v});
    }
  }
  return ds;
}

TEST(Svd, RecoversRank1Structure) {
  const auto ds = rank1_dataset(20, 15);
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 300;
  cfg.learning_rate = 0.02;
  cfg.regularization = 0.0;
  const SvdModel model = incremental_svd(ds, cfg);
  EXPECT_LT(reconstruction_rmse(model, ds), 0.02);
}

TEST(Svd, HigherRankNeverWorse) {
  common::Rng rng(5);
  SparseDataset ds;
  ds.rows = 30;
  ds.cols = 20;
  for (std::uint32_t r = 0; r < ds.rows; ++r)
    for (std::uint32_t c = 0; c < ds.cols; ++c)
      if (rng.bernoulli(0.6))
        ds.entries.push_back({r, c, rng.uniform(1.0, 5.0)});

  SvdConfig cfg;
  cfg.epochs_per_dim = 120;
  cfg.regularization = 0.0;
  cfg.rank = 1;
  const double e1 = incremental_svd(ds, cfg).train_rmse;
  cfg.rank = 4;
  const double e4 = incremental_svd(ds, cfg).train_rmse;
  EXPECT_LE(e4, e1 + 1e-6);
}

TEST(Svd, SimilarRowsGetSimilarFactors) {
  // Two blocks of identical rows: within-block factor distance must be
  // far below between-block distance — the property synopsis grouping
  // relies on.
  SparseDataset ds;
  ds.rows = 20;
  ds.cols = 12;
  for (std::uint32_t r = 0; r < 20; ++r) {
    const bool block_a = r < 10;
    for (std::uint32_t c = 0; c < 12; ++c) {
      const double v = block_a ? (c < 6 ? 5.0 : 1.0) : (c < 6 ? 1.0 : 5.0);
      ds.entries.push_back({r, c, v});
    }
  }
  SvdConfig cfg;
  cfg.rank = 2;
  cfg.epochs_per_dim = 200;
  const SvdModel m = incremental_svd(ds, cfg);
  const double within =
      distance(m.row_factors.row(0), m.row_factors.row(5), 2);
  const double between =
      distance(m.row_factors.row(0), m.row_factors.row(15), 2);
  EXPECT_LT(within * 5.0, between);
}

TEST(Svd, DeterministicForSeed) {
  const auto ds = rank1_dataset(10, 8);
  SvdConfig cfg;
  cfg.rank = 2;
  cfg.epochs_per_dim = 50;
  const SvdModel a = incremental_svd(ds, cfg);
  const SvdModel b = incremental_svd(ds, cfg);
  for (std::size_t r = 0; r < ds.rows; ++r)
    for (std::size_t d = 0; d < cfg.rank; ++d)
      EXPECT_DOUBLE_EQ(a.row_factors(r, d), b.row_factors(r, d));
}

TEST(Svd, RejectsBadConfig) {
  const auto ds = rank1_dataset(4, 4);
  SvdConfig cfg;
  cfg.rank = 0;
  EXPECT_THROW(incremental_svd(ds, cfg), std::invalid_argument);
}

TEST(Svd, RejectsEntryOutOfBounds) {
  SparseDataset ds;
  ds.rows = 2;
  ds.cols = 2;
  ds.entries.push_back({5, 0, 1.0});
  EXPECT_THROW(incremental_svd(ds, SvdConfig{}), std::out_of_range);
}

TEST(Svd, EmptyEntriesYieldInitializedModel) {
  SparseDataset ds;
  ds.rows = 3;
  ds.cols = 3;
  SvdConfig cfg;
  cfg.rank = 2;
  const SvdModel m = incremental_svd(ds, cfg);
  EXPECT_EQ(m.row_factors.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.train_rmse, 0.0);
}

TEST(Svd, EarlyStoppingReducesWork) {
  const auto ds = rank1_dataset(15, 10);
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 5000;
  cfg.min_improvement = 1e-7;
  const SvdModel m = incremental_svd(ds, cfg);  // must terminate quickly
  EXPECT_LT(reconstruction_rmse(m, ds), 0.1);
}

TEST(Svd, FoldInNewRowsKeepsOldCoordinates) {
  const auto ds = rank1_dataset(12, 10);
  SvdConfig cfg;
  cfg.rank = 2;
  cfg.epochs_per_dim = 150;
  SvdModel model = incremental_svd(ds, cfg);
  const double before = model.row_factors(3, 0);

  SparseDataset extra;
  extra.rows = 2;
  extra.cols = 10;
  for (std::uint32_t c = 0; c < 10; ++c) {
    extra.entries.push_back({0, c, (1.0 + 0.1 * 12) * (0.5 + 0.2 * c)});
    extra.entries.push_back({1, c, (1.0 + 0.1 * 13) * (0.5 + 0.2 * c)});
  }
  fold_in_rows(model, extra, cfg);
  EXPECT_EQ(model.row_factors.rows(), 14u);
  EXPECT_DOUBLE_EQ(model.row_factors(3, 0), before);  // frozen

  // Folded rows should reconstruct their entries reasonably well.
  double err = 0.0;
  for (const auto& e : extra.entries) {
    const double p = model.predict(12 + e.row, e.col);
    err += (p - e.value) * (p - e.value);
  }
  err = std::sqrt(err / static_cast<double>(extra.entries.size()));
  EXPECT_LT(err, 0.6);
}

TEST(Svd, FoldInRejectsColumnMismatch) {
  const auto ds = rank1_dataset(6, 5);
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 30;
  SvdModel model = incremental_svd(ds, cfg);
  SparseDataset extra;
  extra.rows = 1;
  extra.cols = 99;
  EXPECT_THROW(fold_in_rows(model, extra, cfg), std::invalid_argument);
}

TEST(SvdBiases, AbsorbSystematicOffsets) {
  // Data = strong row/col offsets + weak rank-1 interaction: the biased
  // model should reconstruct far better at equal rank.
  common::Rng rng(71);
  SparseDataset ds;
  ds.rows = 40;
  ds.cols = 30;
  std::vector<double> row_off(ds.rows), col_off(ds.cols);
  for (auto& v : row_off) v = rng.normal(0.0, 1.5);
  for (auto& v : col_off) v = rng.normal(0.0, 1.5);
  for (std::uint32_t r = 0; r < ds.rows; ++r) {
    for (std::uint32_t c = 0; c < ds.cols; ++c) {
      if (!rng.bernoulli(0.7)) continue;
      const double interaction = 0.3 * (1.0 + 0.02 * r) * (1.0 + 0.03 * c);
      ds.entries.push_back(
          {r, c, 3.0 + row_off[r] + col_off[c] + interaction});
    }
  }
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 150;
  const double plain = incremental_svd(ds, cfg).train_rmse;
  cfg.use_biases = true;
  const double biased = incremental_svd(ds, cfg).train_rmse;
  EXPECT_LT(biased, plain * 0.6);
}

TEST(SvdBiases, PredictIncludesBiasTerms) {
  SparseDataset ds;
  ds.rows = 4;
  ds.cols = 4;
  for (std::uint32_t r = 0; r < 4; ++r)
    for (std::uint32_t c = 0; c < 4; ++c)
      ds.entries.push_back({r, c, 2.0 + 0.5 * r - 0.25 * c});
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 300;
  cfg.use_biases = true;
  const SvdModel m = incremental_svd(ds, cfg);
  EXPECT_TRUE(m.has_biases());
  EXPECT_NEAR(m.predict(3, 0), 3.5, 0.25);
  EXPECT_NEAR(m.predict(0, 3), 1.25, 0.25);
}

TEST(SvdBiases, FoldInTrainsNewRowBias) {
  SparseDataset ds;
  ds.rows = 10;
  ds.cols = 6;
  for (std::uint32_t r = 0; r < 10; ++r)
    for (std::uint32_t c = 0; c < 6; ++c)
      ds.entries.push_back({r, c, 3.0 + 0.1 * c});
  SvdConfig cfg;
  cfg.rank = 1;
  cfg.epochs_per_dim = 150;
  cfg.use_biases = true;
  SvdModel model = incremental_svd(ds, cfg);

  // New row systematically 2 higher: its bias must pick that up.
  SparseDataset extra;
  extra.rows = 1;
  extra.cols = 6;
  for (std::uint32_t c = 0; c < 6; ++c)
    extra.entries.push_back({0, c, 5.0 + 0.1 * c});
  fold_in_rows(model, extra, cfg);
  ASSERT_EQ(model.row_bias.size(), 11u);
  double err = 0.0;
  for (const auto& e : extra.entries) {
    const double p = model.predict(10, e.col);
    err += std::abs(p - e.value);
  }
  EXPECT_LT(err / 6.0, 0.7);
}

// Parameterized sweep: reconstruction error stays sane across shapes.
class SvdShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SvdShapes, ReconstructionErrorBounded) {
  const auto [rows, cols] = GetParam();
  common::Rng rng(rows * 31 + cols);
  SparseDataset ds;
  ds.rows = rows;
  ds.cols = cols;
  // Low-rank plus noise.
  for (std::uint32_t r = 0; r < rows; ++r)
    for (std::uint32_t c = 0; c < cols; ++c)
      ds.entries.push_back(
          {r, c,
           (1.0 + 0.05 * r) * (1.0 + 0.07 * c) + rng.normal(0.0, 0.05)});
  SvdConfig cfg;
  cfg.rank = 3;
  cfg.epochs_per_dim = 80;
  const SvdModel m = incremental_svd(ds, cfg);
  EXPECT_LT(m.train_rmse, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::make_tuple(5, 40),
                                           std::make_tuple(40, 5),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(64, 8),
                                           std::make_tuple(8, 64)));

// Plain per-entry reference of incremental_svd's deterministic path: one
// SGD step per entry in row-major order, every factor read from and
// written back to the model at once, nothing in flight. The library's
// sweep must reproduce it bit for bit.
struct ReferenceRun {
  SvdModel model;
  std::vector<std::size_t> epochs;  // epochs each dimension ran
  std::vector<double> rmse;         // every epoch's rmse, in training order
};

ReferenceRun reference_svd(const SparseDataset& input,
                           const SvdConfig& config) {
  SparseDataset data = input;
  if (!data.has_csr()) data.build_csr();
  const std::size_t count = data.col_idx.size();
  common::Rng rng(config.seed);
  ReferenceRun run;
  SvdModel& m = run.model;
  m.row_factors = Matrix(data.rows, config.rank);
  m.col_factors = Matrix(data.cols, config.rank);
  for (std::size_t r = 0; r < data.rows; ++r)
    for (std::size_t d = 0; d < config.rank; ++d)
      m.row_factors(r, d) = config.init_scale * (rng.uniform() - 0.5);
  for (std::size_t c = 0; c < data.cols; ++c)
    for (std::size_t d = 0; d < config.rank; ++d)
      m.col_factors(c, d) = config.init_scale * (rng.uniform() - 0.5);
  const bool biases = config.use_biases;
  if (biases) {
    double sum = 0.0;
    for (const double v : data.values) sum += v;
    m.global_mean = sum / static_cast<double>(count);
    m.row_bias.assign(data.rows, 0.0);
    m.col_bias.assign(data.cols, 0.0);
  }
  const double lr = config.learning_rate;
  const double reg = config.regularization;
  std::vector<double> resid = data.values;
  for (std::size_t d = 0; d < config.rank; ++d) {
    double prev_rmse = -1.0;
    std::size_t epoch = 0;
    for (; epoch < config.epochs_per_dim; ++epoch) {
      double sq = 0.0;
      for (std::size_t r = 0; r < data.rows; ++r) {
        for (std::size_t i = data.row_ptr[r]; i < data.row_ptr[r + 1]; ++i) {
          const std::uint32_t c = data.col_idx[i];
          const double p = m.row_factors(r, d);
          const double q = m.col_factors(c, d);
          double err = resid[i] - p * q;
          if (biases) {
            const double br = m.row_bias[r];
            const double bc = m.col_bias[c];
            err -= m.global_mean + br + bc;
            m.row_bias[r] = br + lr * (err - reg * br);
            m.col_bias[c] = bc + lr * (err - reg * bc);
          }
          sq += err * err;
          m.row_factors(r, d) = p + lr * (err * q - reg * p);
          m.col_factors(c, d) = q + lr * (err * p - reg * q);
        }
      }
      const double rmse = std::sqrt(sq / static_cast<double>(count));
      run.rmse.push_back(rmse);
      if (config.min_improvement > 0.0 && prev_rmse >= 0.0 &&
          prev_rmse - rmse < config.min_improvement) {
        break;
      }
      prev_rmse = rmse;
    }
    run.epochs.push_back(epoch);
    for (std::size_t r = 0; r < data.rows; ++r)
      for (std::size_t i = data.row_ptr[r]; i < data.row_ptr[r + 1]; ++i)
        resid[i] -= m.row_factors(r, d) * m.col_factors(data.col_idx[i], d);
  }
  m.train_rmse = reconstruction_rmse(m, input);
  return run;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

void expect_bit_identical(const SvdModel& a, const SvdModel& b) {
  ASSERT_EQ(a.row_factors.rows(), b.row_factors.rows());
  ASSERT_EQ(a.col_factors.rows(), b.col_factors.rows());
  ASSERT_EQ(a.row_bias.size(), b.row_bias.size());
  ASSERT_EQ(a.col_bias.size(), b.col_bias.size());
  EXPECT_TRUE(same_bits(a.row_factors.row(0), b.row_factors.row(0),
                        a.row_factors.rows() * a.row_factors.cols()));
  EXPECT_TRUE(same_bits(a.col_factors.row(0), b.col_factors.row(0),
                        a.col_factors.rows() * a.col_factors.cols()));
  EXPECT_TRUE(same_bits(a.row_bias.data(), b.row_bias.data(),
                        a.row_bias.size()));
  EXPECT_TRUE(same_bits(a.col_bias.data(), b.col_bias.data(),
                        a.col_bias.size()));
  EXPECT_TRUE(same_bits(&a.global_mean, &b.global_mean, 1));
  EXPECT_TRUE(same_bits(&a.train_rmse, &b.train_rmse, 1));
}

// Rows of every awkward length: an empty first and last row, empty and
// one-entry rows throughout, an odd row count. Sorted unique columns per
// row (the SparseRows shape) unless `coo_shuffle`, which emits the entries
// in random order with repeated (row, column) pairs, so CSR rows come out
// unsorted with duplicate columns.
SparseDataset ragged_dataset(bool coo_shuffle) {
  common::Rng rng(99);
  SparseDataset ds;
  ds.rows = 43;
  ds.cols = 30;
  for (std::uint32_t r = 0; r < ds.rows; ++r) {
    if (r % 6 == 0) continue;  // rows 0 and 42 included
    if (r % 6 == 1) {
      ds.entries.push_back(
          {r, static_cast<std::uint32_t>(rng.uniform_index(ds.cols)),
           rng.uniform(1.0, 5.0)});
      continue;
    }
    for (std::uint32_t c = 0; c < ds.cols; ++c) {
      if (rng.uniform() < 0.4)
        ds.entries.push_back({r, c, rng.uniform(1.0, 5.0)});
    }
  }
  if (coo_shuffle) {
    const std::size_t n = ds.entries.size();
    for (std::size_t k = 0; k < n / 4; ++k) {
      auto dup = ds.entries[rng.uniform_index(n)];
      dup.value = rng.uniform(1.0, 5.0);
      ds.entries.push_back(dup);
    }
    for (std::size_t i = ds.entries.size(); i > 1; --i)
      std::swap(ds.entries[i - 1], ds.entries[rng.uniform_index(i)]);
  } else {
    ds.build_csr();
  }
  return ds;
}

TEST(SvdSweepParity, MatchesPerEntryReferenceBitForBit) {
  workload::CorpusConfig ccfg;
  ccfg.num_components = 2;
  ccfg.docs_per_component = 300;
  ccfg.vocab_size = 1500;
  const auto corpus = workload::CorpusGen(ccfg).generate(0);
  std::vector<std::pair<const char*, SparseDataset>> inputs;
  inputs.emplace_back("corpus shard 0", corpus.shards[0].to_dataset());
  inputs.emplace_back("corpus shard 1", corpus.shards[1].to_dataset());
  inputs.emplace_back("ragged rows", ragged_dataset(false));
  inputs.emplace_back("unsorted rows, repeated columns", ragged_dataset(true));

  for (const auto& [name, data] : inputs) {
    for (const bool biases : {false, true}) {
      SvdConfig cfg;
      cfg.rank = 3;
      cfg.epochs_per_dim = 12;
      cfg.use_biases = biases;
      SCOPED_TRACE(::testing::Message() << name << ", biases=" << biases);
      const ReferenceRun full = reference_svd(data, cfg);
      expect_bit_identical(incremental_svd(data, cfg), full.model);

      // Early stopping that fires after some real training, so stopping
      // one epoch early or late would change the factors.
      cfg.epochs_per_dim = 400;
      cfg.min_improvement = 2e-5;
      const ReferenceRun stopped = reference_svd(data, cfg);
      const std::size_t longest =
          *std::max_element(stopped.epochs.begin(), stopped.epochs.end());
      EXPECT_LT(longest, cfg.epochs_per_dim);
      EXPECT_GT(longest, 3u);
      expect_bit_identical(incremental_svd(data, cfg), stopped.model);

      // On the knife edge: the threshold is exactly dimension 0's smallest
      // improvement over its 12 epochs, so the reference never stops in
      // dimension 0. An epoch error summed in any other order than the
      // sequential one is likely an ulp off and may stop there instead.
      cfg.epochs_per_dim = 12;
      cfg.min_improvement = full.rmse[0] - full.rmse[1];
      for (std::size_t e = 2; e < cfg.epochs_per_dim; ++e)
        cfg.min_improvement =
            std::min(cfg.min_improvement, full.rmse[e - 1] - full.rmse[e]);
      ASSERT_GT(cfg.min_improvement, 0.0);
      const ReferenceRun edge = reference_svd(data, cfg);
      EXPECT_EQ(edge.epochs[0], cfg.epochs_per_dim);
      expect_bit_identical(incremental_svd(data, cfg), edge.model);
    }
  }
}

}  // namespace
}  // namespace at::linalg
