/**
 * @file
 * Runtime knobs of the simulation engine.
 *
 * The only knob today is the worker-thread count of the parallel
 * engine (see sim/engine.h). It defaults to 1 — fully sequential, the
 * behavior every test and bench was written against — and is raised
 * either programmatically or with the ASK_SIM_THREADS environment
 * variable. Raising it never changes results: jobs are independent
 * and their results are folded in job order, so a run is bit-for-bit
 * identical at any thread count (docs/CONCURRENCY.md gives the
 * argument).
 */
#ifndef ASK_SIM_OPTIONS_H
#define ASK_SIM_OPTIONS_H

#include <cstdlib>

namespace ask::sim {

/** Engine configuration, env-overridable. */
struct SimOptions
{
    /** Worker threads the engine may use (>= 1). 1 means run inline on
     *  the calling thread — no pool is created at all. */
    unsigned num_threads = 1;

    /**
     * The defaults with ASK_SIM_THREADS applied (clamped to [1, 64];
     * unparsable values fall back to 1). Every engine entry point —
     * the fuzz campaign driver, the parallel benches — constructs its
     * options through here, so the env var is the one knob that turns
     * on multi-core execution everywhere.
     */
    static SimOptions
    from_env()
    {
        SimOptions options;
        if (const char* env = std::getenv("ASK_SIM_THREADS")) {
            long v = std::strtol(env, nullptr, 10);
            if (v < 1)
                v = 1;
            if (v > 64)
                v = 64;
            options.num_threads = static_cast<unsigned>(v);
        }
        return options;
    }
};

}  // namespace ask::sim

#endif  // ASK_SIM_OPTIONS_H
