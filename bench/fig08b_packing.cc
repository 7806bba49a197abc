/**
 * Figure 8(b) — CDF of non-blank (valid) key-value tuples per packet
 * for packets built from different datasets. Uniform short keys fill
 * nearly every packet; skewed corpora leave slots blank (the key-space
 * partition can only place one tuple per slot queue per packet). Paper:
 * the worst trace (yelp) still averages 16.91 valid tuples per packet.
 */
#include <cstdint>
#include <iostream>
#include <memory>
#include <utility>

#include "ask/packet_builder.h"
#include "bench_util.h"
#include "common/stats.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace {

using namespace ask;

/** Valid tuples of every DATA frame built from `stream`, counted from
 *  its bitmap as the switch counts them: one per short slot bit, one per
 *  medium group. The LONG_DATA frames, which follow the last DATA frame,
 *  carry no slots. */
Samples
packing_distribution(const core::KeySpace& ks, core::KvStream stream)
{
    const core::AskConfig& cfg = ks.config();
    core::PacketBuilder builder(
        ks, std::make_shared<const core::KvStream>(std::move(stream)));
    Samples s;
    while (!builder.empty()) {
        core::AskHeader hdr;
        builder.next_frame(hdr, /*bypass=*/false);
        if (hdr.type != core::PacketType::kData)
            break;
        std::uint32_t valid = 0;
        for (std::uint32_t i = 0; i < cfg.short_aas(); ++i)
            valid += (hdr.bitmap >> i) & 1;
        for (std::uint32_t g = 0; g < cfg.medium_groups; ++g)
            valid += (hdr.bitmap >> cfg.medium_base(g)) & 1;
        s.add(valid);
    }
    return s;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report("fig08b_packing",
                              "CDF of valid tuples per packet, by dataset",
                              argc, argv);
    bool full = report.full();
    std::uint64_t tuples = report.smoke() ? 100000 : (full ? 3000000 : 400000);
    report.param("tuples", tuples);

    bench::banner("Figure 8(b)",
                  "CDF of valid tuples per packet, by dataset");

    TextTable t;
    t.header({"dataset", "mean", "p10", "p50", "p90", "packets"});

    // Uniform 4-byte keys: the all-short slot layout (32 short AAs).
    {
        core::AskConfig cfg;
        cfg.medium_groups = 0;
        core::KeySpace ks(cfg);
        workload::UniformGenerator gen(1 << 16, 3);
        Samples s = packing_distribution(ks, gen.generate(tuples));
        t.row({"Uniform", fmt_double(s.mean(), 2),
               fmt_double(s.quantile(0.1), 1), fmt_double(s.quantile(0.5), 1),
               fmt_double(s.quantile(0.9), 1), std::to_string(s.count())});
        report.row({{"dataset", "uniform"},
                    {"mean", s.mean()},
                    {"p10", s.quantile(0.1)},
                    {"p50", s.quantile(0.5)},
                    {"p90", s.quantile(0.9)},
                    {"packets", s.count()}});
    }

    // Corpora: the default layout (16 short AAs + 8 medium groups).
    core::AskConfig cfg;
    core::KeySpace ks(cfg);
    for (const auto& profile : workload::all_corpus_profiles()) {
        workload::CorpusProfile p = profile;
        p.vocabulary /= full ? 2 : 8;
        workload::TextCorpus corpus(p, 5);
        Samples s = packing_distribution(ks, corpus.generate(tuples));
        t.row({profile.name, fmt_double(s.mean(), 2),
               fmt_double(s.quantile(0.1), 1), fmt_double(s.quantile(0.5), 1),
               fmt_double(s.quantile(0.9), 1), std::to_string(s.count())});
        report.row({{"dataset", profile.name},
                    {"mean", s.mean()},
                    {"p10", s.quantile(0.1)},
                    {"p50", s.quantile(0.5)},
                    {"p90", s.quantile(0.9)},
                    {"packets", s.count()}});
    }
    t.print(std::cout);
    report.note("paper: Uniform has almost no blank slots (32 valid/packet); "
                "the worst trace (yelp) still averages 16.91 valid tuples");
    return 0;
}
