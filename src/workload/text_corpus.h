/**
 * @file
 * Synthetic text-corpus generators standing in for the paper's
 * production traces (yelp, 20 Newsgroups, Blog Authorship Corpus, Large
 * Movie Review Database).
 *
 * We cannot ship the datasets, but the ASK behaviors they drive —
 * Table 1's traffic reduction and Fig. 8b's packing efficiency — depend
 * only on (a) the key-frequency skew and (b) the word-length
 * distribution (which decides short/medium/long classification). Each
 * profile parameterizes both: a Zipf exponent and vocabulary size for
 * skew, and a rank-dependent word-length model honoring Zipf's law of
 * abbreviation (frequent words are short). Absolute percentages differ
 * a few points from the paper; orderings and ranges are preserved.
 */
#ifndef ASK_WORKLOAD_TEXT_CORPUS_H
#define ASK_WORKLOAD_TEXT_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ask/types.h"
#include "common/random.h"
#include "workload/generators.h"

namespace ask::workload {

/** Statistical profile of one corpus. */
struct CorpusProfile
{
    std::string name;
    /** Vocabulary size (distinct words). */
    std::uint64_t vocabulary = 100000;
    /** Zipf exponent of word frequency. */
    double zipf_alpha = 1.0;
    /** Base word length for the most frequent words. */
    double base_len = 2.4;
    /** Word-length growth per decade of rank (law of abbreviation). */
    double len_per_decade = 1.35;
    /** Std deviation of word length around its rank mean. */
    double len_sigma = 1.4;
};

/** Built-in profiles mirroring the paper's four datasets. */
CorpusProfile yelp_profile();
CorpusProfile newsgroups_profile();
CorpusProfile blog_authorship_profile();
CorpusProfile movie_reviews_profile();
std::vector<CorpusProfile> all_corpus_profiles();

/**
 * Generates word-count streams from a CorpusProfile. Each word of the
 * vocabulary has a deterministic spelling (lowercase letters, length
 * drawn from the rank-dependent model), so the same profile+seed always
 * yields the same trace. The constructor spells the whole vocabulary in
 * rank order, and generate() draws ranks with a ZipfSampler.
 */
class TextCorpus
{
  public:
    TextCorpus(const CorpusProfile& profile, std::uint64_t seed);

    /** Generate a WordCount-style stream of `n` (word, 1) tuples. */
    core::KvStream generate(std::uint64_t n);

    /** The spelling of the rank-r word. */
    const core::Key& word(std::uint64_t rank);

    const CorpusProfile& profile() const { return profile_; }

  private:
    CorpusProfile profile_;
    Rng rng_;
    ZipfSampler sampler_;
    std::vector<core::Key> words_;  ///< spellings, indexed by rank
};

}  // namespace ask::workload

#endif  // ASK_WORKLOAD_TEXT_CORPUS_H
