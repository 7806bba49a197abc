#include "workload/text_corpus.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"

namespace ask::workload {

CorpusProfile
yelp_profile()
{
    // Restaurant reviews: very large vocabulary, strong skew toward a
    // small set of common words; the paper measures yelp as the most
    // skew-affected trace (lowest packing efficiency, Fig. 8b).
    CorpusProfile p;
    p.name = "yelp";
    p.vocabulary = 400000;
    p.zipf_alpha = 1.04;
    p.base_len = 2.2;
    p.len_per_decade = 1.45;
    p.len_sigma = 1.5;
    return p;
}

CorpusProfile
newsgroups_profile()
{
    // 20 Newsgroups: smaller vocabulary, flatter distribution (technical
    // vocabulary spreads mass over more words).
    CorpusProfile p;
    p.name = "NG";
    p.vocabulary = 130000;
    p.zipf_alpha = 0.92;
    p.base_len = 2.5;
    p.len_per_decade = 1.30;
    p.len_sigma = 1.3;
    return p;
}

CorpusProfile
blog_authorship_profile()
{
    CorpusProfile p;
    p.name = "BAC";
    p.vocabulary = 280000;
    p.zipf_alpha = 0.96;
    p.base_len = 2.3;
    p.len_per_decade = 1.30;
    p.len_sigma = 1.3;
    return p;
}

CorpusProfile
movie_reviews_profile()
{
    CorpusProfile p;
    p.name = "LMDB";
    p.vocabulary = 160000;
    p.zipf_alpha = 1.00;
    p.base_len = 2.4;
    p.len_per_decade = 1.35;
    p.len_sigma = 1.4;
    return p;
}

std::vector<CorpusProfile>
all_corpus_profiles()
{
    return {yelp_profile(), newsgroups_profile(), blog_authorship_profile(),
            movie_reviews_profile()};
}

TextCorpus::TextCorpus(const CorpusProfile& profile, std::uint64_t seed)
    : profile_(profile),
      rng_(seed),
      sampler_(profile_.vocabulary, profile_.zipf_alpha)
{
    // Materialize deterministic spellings in rank order; collisions are
    // resolved by extending the word, so spellings are unique. `spelled`
    // is an open-addressing set of the spellings so far, at most half
    // full: each slot holds 1 + the rank of a word in `words_`, or 0.
    words_.reserve(profile_.vocabulary);
    const std::size_t mask = std::bit_ceil(2 * profile_.vocabulary) - 1;
    std::vector<std::uint32_t> spelled(mask + 1, 0);
    std::uint64_t spell_state = mix64(seed ^ fnv1a64(profile_.name));
    auto letter = [&spell_state] {
        return static_cast<char>('a' + split_mix64(spell_state) % 26);
    };
    for (std::uint64_t r = 0; r < profile_.vocabulary; ++r) {
        // Rank-dependent mean length (Zipf's law of abbreviation).
        double mu = profile_.base_len +
                    profile_.len_per_decade * std::log10(1.0 + static_cast<double>(r));
        // Box-Muller normal draw.
        double u1 = std::max(1e-12, static_cast<double>(split_mix64(spell_state)) /
                                        18446744073709551616.0);
        double u2 = static_cast<double>(split_mix64(spell_state)) /
                    18446744073709551616.0;
        double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
        auto len = static_cast<std::int64_t>(std::lround(mu + profile_.len_sigma * z));
        len = std::clamp<std::int64_t>(len, 1, 18);

        core::Key w;
        w.reserve(static_cast<std::size_t>(len));
        for (std::int64_t i = 0; i < len; ++i)
            w.push_back(letter());
        std::size_t slot = mix64(fnv1a64(w)) & mask;
        while (spelled[slot] != 0) {
            if (words_[spelled[slot] - 1] == w) {
                w.push_back(letter());
                slot = mix64(fnv1a64(w)) & mask;
            } else {
                slot = (slot + 1) & mask;
            }
        }
        spelled[slot] = static_cast<std::uint32_t>(words_.size() + 1);
        words_.push_back(std::move(w));
    }
}

const core::Key&
TextCorpus::word(std::uint64_t rank)
{
    ASK_ASSERT(rank < words_.size(), "rank beyond vocabulary");
    return words_[rank];
}

core::KvStream
TextCorpus::generate(std::uint64_t n)
{
    core::KvStream out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back({words_[sampler_.rank(rng_.next_double())], 1});
    return out;
}

}  // namespace ask::workload
