// Inverted index + TF-IDF scoring for the web search service (paper §3.2,
// Lucene-style): postings map each term to the documents containing it,
// and a query's matching documents are scored by
//   score(d, q) = Σ_{t ∈ q}  sqrt(tf_{t,d}) * idf_t / sqrt(dl_d)
// with idf_t = ln(1 + N / (1 + df_t)). Every scoring call can override the
// local idf with a service-global table so scores merge consistently across
// components; the index itself never holds one, so one index serves any
// number of idf tables.
//
// Postings are stored block-compressed (postings_codec.h): delta-encoded
// doc ids in 128-entry varint/group-varint blocks with one-byte quantized
// tfs, decoded a block at a time inside the scoring loop — the raw arrays
// are never materialized and results stay bit-identical to the
// uncompressed layout. Scoring accumulates into a dense, epoch-stamped
// per-doc scratch buffer that is reused across queries (no per-query
// hashing or allocation), and top-k selection runs directly over the
// touched docs without materializing the candidate list.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "services/search/postings_codec.h"
#include "services/search/topk.h"
#include "synopsis/sparse_rows.h"

namespace at::search {

struct Posting {
  std::uint32_t doc = 0;  // local document id
  double tf = 0.0;        // term occurrence count
};

/// Ranking function.
enum class Scorer {
  /// sqrt(tf) * idf / sqrt(dl) — the Lucene-classic practical scoring used
  /// by the paper's evaluation service.
  kTfIdf,
  /// Okapi BM25 with the standard k1/b saturation and length normalization.
  kBm25,
};

struct ScorerParams {
  Scorer scorer = Scorer::kTfIdf;
  double bm25_k1 = 1.2;
  double bm25_b = 0.75;
};

/// Index storage footprint: the compressed byte pool against the raw
/// (u32 doc + f64 tf [+ f64 cached sqrt]) layout it replaced, both
/// including the per-term directory.
struct IndexSizeStats {
  std::size_t postings = 0;
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio() const {
    return raw_bytes > 0
               ? static_cast<double>(compressed_bytes) /
                     static_cast<double>(raw_bytes)
               : 0.0;
  }
};

/// Dense per-doc score scratch, reusable across queries. A doc's slot is
/// valid only when its stamp matches the current epoch, so clearing costs
/// O(#touched docs) rather than O(#docs); `touched` lists the matching
/// docs in first-touch order.
///
/// Stamp 0 is reserved as "never touched": freshly grown slots hold it and
/// begin() never hands out epoch 0, so a resize can't alias a new slot
/// into the current query. On epoch wraparound every stamp is cleared once
/// so counter reuse can't resurrect stale slots either.
class ScoreAccumulator {
 public:
  /// Starts a new accumulation over `num_docs` local doc ids.
  void begin(std::size_t num_docs);

  void add(std::uint32_t doc, double score) {
    assert(doc < stamp_.size() && "add() before begin() sized this doc");
    if (stamp_[doc] != epoch_) {
      stamp_[doc] = epoch_;
      score_[doc] = score;
      touched_.push_back(doc);
    } else {
      score_[doc] += score;
    }
  }

  /// Fresh-epoch fast path (ROADMAP accumulator-drain item): bulk-appends
  /// docs the CALLER guarantees are untouched this epoch — e.g. a query's
  /// first term, whose postings contain each doc id at most once. Skips
  /// the per-posting stamp compare/branch and appends the staged block ids
  /// with one memcpy; the resulting state (scores, touched order, stamps)
  /// is identical to n add() calls, which the parity test pins.
  void bulk_add_fresh(const std::uint32_t* docs, const double* scores,
                      std::size_t n) {
    const std::size_t base = touched_.size();
    touched_.resize(base + n);
    std::memcpy(touched_.data() + base, docs, n * sizeof(std::uint32_t));
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t doc = docs[i];
      assert(doc < stamp_.size() && "bulk_add_fresh() beyond begin() size");
      assert(stamp_[doc] != epoch_ && "bulk_add_fresh() on a touched doc");
      stamp_[doc] = epoch_;
      score_[doc] = scores[i];
    }
  }

  double score(std::uint32_t doc) const { return score_[doc]; }
  const std::vector<std::uint32_t>& touched() const { return touched_; }

  std::uint32_t epoch() const { return epoch_; }
  /// Test hook: jumps the epoch counter (e.g. next to the wrap point).
  /// begin() still owns stamp invalidation.
  void set_epoch_for_test(std::uint32_t e) { epoch_ = e; }

 private:
  std::vector<double> score_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> touched_;
  std::uint32_t epoch_ = 0;
};

class InvertedIndex {
 public:
  /// Builds the index from document rows (row = doc, col = term, value =
  /// occurrence count).
  explicit InvertedIndex(const synopsis::SparseRows& docs,
                         ScorerParams scorer = {});

  std::size_t num_docs() const { return doc_length_.size(); }
  std::size_t vocab_size() const { return postings_.num_terms(); }

  /// Decoded copy of one term's postings (docs ascending). Debug/interop
  /// path — scoring decodes blocks in place and never materializes this.
  std::vector<Posting> postings(std::uint32_t term) const;
  /// The compressed postings pool itself (benches/tests time the
  /// decode+score kernel stage over exactly the blocks scoring scans).
  const CompressedPostings& postings_pool() const { return postings_; }
  std::uint32_t doc_frequency(std::uint32_t term) const {
    return postings_.count(term);
  }
  double doc_length(std::uint32_t doc) const { return doc_length_.at(doc); }

  /// Local idf of a term (from this index's own document counts).
  double idf(std::uint32_t term) const;

  // In the scoring calls below, a non-null `global_idf` replaces the local
  // idf (e.g. with a corpus-global table); terms beyond its end score 0.

  /// Scores every document matching at least one query term; results are
  /// appended to `out` (unsorted). `doc_id_base` offsets local ids into the
  /// global doc-id space.
  void score_query(const std::vector<std::uint32_t>& terms,
                   std::uint64_t doc_id_base, std::vector<ScoredDoc>& out,
                   const std::vector<double>* global_idf = nullptr) const;

  /// Convenience: score + rank, returning the top k. The candidate set is
  /// never materialized — touched docs stream straight into the bounded
  /// top-k heap.
  std::vector<ScoredDoc> topk(
      const std::vector<std::uint32_t>& terms, std::uint64_t doc_id_base,
      std::size_t k, const std::vector<double>* global_idf = nullptr) const;

  /// Scores one document (or aggregated page) against a query given raw
  /// term counts and length. `Row` is any sorted sparse row type
  /// (SparseVector or SparseRowView).
  template <typename Row>
  double score_counts(const std::vector<std::uint32_t>& terms,
                      const Row& counts, double length,
                      const std::vector<double>* global_idf = nullptr) const {
    double score = 0.0;
    for (auto term : terms) {
      const double tf = synopsis::value_at(counts, term);
      if (tf <= 0.0) continue;
      score += term_doc_score(tf, idf_for(term, global_idf), length);
    }
    return score;
  }

  const ScorerParams& scorer() const { return scorer_; }
  double mean_doc_length() const { return mean_doc_length_; }

  /// Compressed vs raw-equivalent postings footprint.
  IndexSizeStats size_stats() const;

 private:
  double idf_for(std::uint32_t term,
                 const std::vector<double>* global_idf) const;
  double term_doc_score(double tf, double idf, double doc_len) const;
  /// Runs the term-at-a-time accumulation into `acc`, decoding postings
  /// blocks on the fly.
  void accumulate(const std::vector<std::uint32_t>& terms,
                  const std::vector<double>* global_idf,
                  ScoreAccumulator& acc) const;

  ScorerParams scorer_;
  CompressedPostings postings_;
  std::vector<double> local_idf_;   // ln(1 + N/(1+df)) per term
  std::vector<double> doc_length_;  // total term count per doc
  std::vector<double> len_norm_;    // 1/sqrt(doc length), 0 for empty docs
  std::vector<double> bm25_norm_;   // k1*(1-b+b*dl/avg) per doc
  double mean_doc_length_ = 0.0;
};

/// Builds a corpus-global idf table from per-component document frequencies.
/// `dfs` holds each component's per-term document frequency; `total_docs`
/// is the corpus document count.
std::vector<double> merge_idf(
    const std::vector<std::vector<std::uint32_t>>& dfs,
    std::size_t total_docs);

}  // namespace at::search
