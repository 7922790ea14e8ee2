#include "services/search/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/simd.h"

namespace at::search {

void ScoreAccumulator::begin(std::size_t num_docs) {
  if (score_.size() < num_docs) {
    score_.resize(num_docs, 0.0);
    stamp_.resize(num_docs, 0);  // 0 == reserved "never touched" stamp
  }
  touched_.clear();
  // The first begin() moves the epoch off the reserved value before any
  // add() can compare against it; on wraparound to 0, clear every stamp so
  // values stamped one full cycle ago can't alias the reused epochs.
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

InvertedIndex::InvertedIndex(const synopsis::SparseRows& docs,
                             ScorerParams scorer)
    : scorer_(scorer) {
  const std::size_t vocab = docs.cols();
  const std::size_t n = docs.rows();
  std::vector<std::size_t> term_ptr(vocab + 1, 0);
  doc_length_.assign(n, 0.0);

  // Pass 1: per-term posting counts and per-doc lengths.
  double total_len = 0.0;
  for (std::uint32_t d = 0; d < n; ++d) {
    double len = 0.0;
    for (const auto& [term, count] : docs.row(d)) {
      ++term_ptr[term + 1];
      len += count;
    }
    doc_length_[d] = len;
    total_len += len;
  }
  for (std::size_t t = 0; t < vocab; ++t) term_ptr[t + 1] += term_ptr[t];

  // Pass 2: fill flat posting arrays (docs ascending per term because rows
  // are visited in doc order), then compress them block-wise. The raw
  // arrays are build scratch only and are freed on return.
  const std::size_t entries = term_ptr[vocab];
  std::vector<std::uint32_t> post_doc(entries);
  std::vector<double> post_tf(entries);
  std::vector<std::size_t> fill(term_ptr.begin(), term_ptr.end() - 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    for (const auto& [term, count] : docs.row(d)) {
      const std::size_t slot = fill[term]++;
      post_doc[slot] = d;
      post_tf[slot] = count;
    }
  }
  postings_ = CompressedPostings(term_ptr, post_doc, post_tf);

  // Local idf is fixed once the counts are known; caching it keeps the
  // per-term log() out of the query loop.
  local_idf_.resize(vocab);
  const double nd = static_cast<double>(n);
  for (std::size_t t = 0; t < vocab; ++t) {
    const double df = static_cast<double>(term_ptr[t + 1] - term_ptr[t]);
    local_idf_[t] = std::log(1.0 + nd / (1.0 + df));
  }

  mean_doc_length_ = n > 0 ? total_len / static_cast<double>(n) : 0.0;
  len_norm_.resize(n);
  bm25_norm_.resize(n);
  const double k1 = scorer_.bm25_k1;
  const double b = scorer_.bm25_b;
  const double avg = mean_doc_length_ > 0.0 ? mean_doc_length_ : 1.0;
  // Vectorized norm passes (ROADMAP "vectorized sqrt pass in index
  // construction"): hardware sqrt/div are correctly rounded, so every
  // dispatch tier produces the exact doubles of the scalar loop.
  simd::inv_sqrt_or_zero(len_norm_.data(), doc_length_.data(), n);
  simd::bm25_doc_norms(bm25_norm_.data(), doc_length_.data(), k1, b, avg, n);
}

std::vector<Posting> InvertedIndex::postings(std::uint32_t term) const {
  std::vector<std::uint32_t> docs;
  std::vector<double> tfs;
  postings_.decode_term(term, docs, tfs);
  std::vector<Posting> out(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) out[i] = {docs[i], tfs[i]};
  return out;
}

double InvertedIndex::idf(std::uint32_t term) const {
  if (term < local_idf_.size()) return local_idf_[term];
  const double n = static_cast<double>(num_docs());
  const double df = static_cast<double>(doc_frequency(term));
  return std::log(1.0 + n / (1.0 + df));
}

double InvertedIndex::idf_for(std::uint32_t term,
                              const std::vector<double>* global_idf) const {
  if (global_idf != nullptr) {
    return term < global_idf->size() ? (*global_idf)[term] : 0.0;
  }
  return idf(term);
}

double InvertedIndex::term_doc_score(double tf, double idf,
                                     double doc_len) const {
  if (tf <= 0.0 || idf <= 0.0) return 0.0;
  if (scorer_.scorer == Scorer::kBm25) {
    const double k1 = scorer_.bm25_k1;
    const double b = scorer_.bm25_b;
    const double avg = mean_doc_length_ > 0.0 ? mean_doc_length_ : 1.0;
    const double norm = k1 * (1.0 - b + b * doc_len / avg);
    return idf * (tf * (k1 + 1.0)) / (tf + norm);
  }
  // Lucene-classic: sqrt(tf) * idf with 1/sqrt(dl) length normalization.
  const double len_norm = doc_len > 0.0 ? 1.0 / std::sqrt(doc_len) : 0.0;
  return std::sqrt(tf) * idf * len_norm;
}

IndexSizeStats InvertedIndex::size_stats() const {
  IndexSizeStats s;
  s.postings = postings_.total_postings();
  // Raw layout this codec replaced: size_t term offsets plus u32 doc and
  // f64 tf per posting, and the cached f64 sqrt(tf) the tf-idf path kept.
  const std::size_t per_posting =
      sizeof(std::uint32_t) + sizeof(double) +
      (scorer_.scorer == Scorer::kTfIdf ? sizeof(double) : 0);
  s.raw_bytes = (postings_.num_terms() + 1) * sizeof(std::size_t) +
                s.postings * per_posting;
  s.compressed_bytes = postings_.compressed_bytes();
  return s;
}

namespace {
// One dense scratch per thread, reused across queries and indexes.
ScoreAccumulator& scratch() {
  thread_local ScoreAccumulator acc;
  return acc;
}
}  // namespace

void InvertedIndex::accumulate(const std::vector<std::uint32_t>& terms,
                               const std::vector<double>* global_idf,
                               ScoreAccumulator& acc) const {
  acc.begin(num_docs());
  const bool bm25 = scorer_.scorer == Scorer::kBm25;
  const double k1p1 = scorer_.bm25_k1 + 1.0;
  // Block-staged decode-and-score: each 128-posting block decodes its doc
  // ids into an L1 staging buffer (SIMD shuffle decode for group-varint
  // blocks), the tf column expands through the sqrt LUT (tf-idf) or an
  // int->double convert (BM25) and the per-posting score is computed with
  // the dispatched vector kernels — gathered norms, no per-posting
  // decode/score dependency. Every tier performs the scalar loop's exact
  // IEEE operations in the same per-element order, so scores (and the
  // accumulator's add order) are bit-identical to the fused scalar walk
  // this replaced. Only the accumulator drain stays scalar: the
  // first-touch stamp/touched bookkeeping is data-dependent.
  double tf_buf[codec::kBlockSize];
  double score_buf[codec::kBlockSize];
  // The first scored term hits a fresh epoch: within one term's postings
  // every doc id occurs once, so none of its adds can be a repeat touch
  // and the whole term bulk-appends without stamp checks (ROADMAP drain
  // fast path). Later terms (including a duplicated first term) take the
  // stamped path.
  bool fresh = true;
  for (auto term : terms) {
    const double w = idf_for(term, global_idf);
    if (w <= 0.0 || term >= vocab_size()) continue;
    postings_.scan_blocks(term, [&](const codec::BlockView& bv) {
      if (bv.exc_count == 0) {
        // Common case: every tf is a quantized code — score straight from
        // the code bytes, no tf staging round-trip. Bit-identical to the
        // two-step path below (same ops, same order).
        if (bm25) {
          simd::score_bm25_codes(score_buf, bv.codes, bv.docs,
                                 bm25_norm_.data(), w, k1p1, bv.n);
        } else {
          simd::score_tfidf_codes(score_buf, bv.codes, codec::kSqrtLut,
                                  bv.docs, len_norm_.data(), w, bv.n);
        }
      } else {
        // Rare path: expand tfs, patch the exception entries (code 0)
        // with their exact doubles in posting order, then score.
        if (bm25) {
          simd::u8_to_f64(tf_buf, bv.codes, bv.n);
        } else {
          simd::expand_lut_u8(tf_buf, bv.codes, codec::kSqrtLut, bv.n);
        }
        const std::uint8_t* excp = bv.excs;
        for (std::size_t i = 0; i < bv.n; ++i) {
          if (bv.codes[i] != 0) continue;
          double exc;
          std::memcpy(&exc, excp, sizeof exc);
          excp += sizeof exc;
          tf_buf[i] = bm25 ? exc : std::sqrt(exc);
        }
        if (bm25) {
          simd::score_bm25(score_buf, tf_buf, bv.docs, bm25_norm_.data(), w,
                           k1p1, bv.n);
        } else {
          simd::score_tfidf(score_buf, tf_buf, bv.docs, len_norm_.data(), w,
                            bv.n);
        }
      }
      if (fresh) {
        acc.bulk_add_fresh(bv.docs, score_buf, bv.n);
      } else {
        for (std::size_t i = 0; i < bv.n; ++i)
          acc.add(bv.docs[i], score_buf[i]);
      }
    });
    fresh = false;
  }
}

void InvertedIndex::score_query(const std::vector<std::uint32_t>& terms,
                                std::uint64_t doc_id_base,
                                std::vector<ScoredDoc>& out,
                                const std::vector<double>* global_idf) const {
  ScoreAccumulator& acc = scratch();
  accumulate(terms, global_idf, acc);
  out.reserve(out.size() + acc.touched().size());
  for (auto doc : acc.touched()) {
    const double score = acc.score(doc);
    if (score <= 0.0) continue;
    out.push_back(ScoredDoc{score, doc_id_base + doc});
  }
}

std::vector<ScoredDoc> InvertedIndex::topk(
    const std::vector<std::uint32_t>& terms, std::uint64_t doc_id_base,
    std::size_t k, const std::vector<double>* global_idf) const {
  ScoreAccumulator& acc = scratch();
  accumulate(terms, global_idf, acc);
  TopK top(k);
  for (auto doc : acc.touched()) {
    const double score = acc.score(doc);
    if (score <= 0.0) continue;
    top.offer(ScoredDoc{score, doc_id_base + doc});
  }
  return top.take();
}

std::vector<double> merge_idf(
    const std::vector<std::vector<std::uint32_t>>& dfs,
    std::size_t total_docs) {
  std::size_t vocab = 0;
  for (const auto& v : dfs) vocab = std::max(vocab, v.size());
  std::vector<double> idf(vocab, 0.0);
  for (std::size_t t = 0; t < vocab; ++t) {
    std::uint64_t df = 0;
    for (const auto& v : dfs) {
      if (t < v.size()) df += v[t];
    }
    idf[t] = std::log(1.0 + static_cast<double>(total_docs) /
                                (1.0 + static_cast<double>(df)));
  }
  return idf;
}

}  // namespace at::search
