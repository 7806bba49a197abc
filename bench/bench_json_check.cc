/**
 * Validator for the machine-readable bench output (schema
 * "ask-bench/v1"). Takes one or more BENCH_*.json paths, parses each
 * with the strict obs::Json parser, and checks the document shape that
 * BenchReport promises:
 *
 *   schema       == "ask-bench/v1"
 *   experiment   non-empty string
 *   description  string
 *   mode         one of "smoke" | "default" | "full"
 *   params       object; exact_runs == runs when either is present
 *   rows         array of objects
 *   notes        array of strings
 *   metrics      object (optional)
 *
 * Exits non-zero naming the first violated rule, so the bench_smoke
 * ctest target fails loudly when a bench drifts from the schema.
 *
 *   ./build/bench/bench_json_check BENCH_fig03_akvs.json ...
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

using ask::obs::Json;

bool
fail(const std::string& path, const std::string& what)
{
    std::cerr << "bench_json_check: " << path << ": " << what << "\n";
    return false;
}

bool
check_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return fail(path, "cannot open");
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string error;
    std::optional<Json> doc = Json::parse(buf.str(), &error);
    if (!doc)
        return fail(path, "parse error: " + error);
    if (!doc->is_object())
        return fail(path, "top-level value is not an object");

    const Json* schema = doc->find("schema");
    if (!schema || !schema->is_string() ||
        schema->as_string() != "ask-bench/v1")
        return fail(path, "schema must be the string \"ask-bench/v1\"");

    const Json* experiment = doc->find("experiment");
    if (!experiment || !experiment->is_string() ||
        experiment->as_string().empty())
        return fail(path, "experiment must be a non-empty string");

    const Json* description = doc->find("description");
    if (!description || !description->is_string())
        return fail(path, "description must be a string");

    const Json* mode = doc->find("mode");
    if (!mode || !mode->is_string() ||
        (mode->as_string() != "smoke" && mode->as_string() != "default" &&
         mode->as_string() != "full"))
        return fail(path, "mode must be \"smoke\", \"default\" or \"full\"");

    const Json* params = doc->find("params");
    if (!params || !params->is_object())
        return fail(path, "params must be an object");
    // A bench that checks its runs against ground truth records the
    // tally, so an inexact run fails here even if its exit code is lost.
    const Json* exact_runs = params->find("exact_runs");
    const Json* runs = params->find("runs");
    if (exact_runs || runs) {
        if (!exact_runs || !runs || !exact_runs->is_int() || !runs->is_int())
            return fail(path, "params.exact_runs and params.runs must be "
                              "integers, recorded together");
        if (exact_runs->as_int() != runs->as_int())
            return fail(path, "params.exact_runs " +
                                  std::to_string(exact_runs->as_int()) +
                                  " != params.runs " +
                                  std::to_string(runs->as_int()));
    }

    const Json* rows = doc->find("rows");
    if (!rows || !rows->is_array())
        return fail(path, "rows must be an array");
    for (std::size_t i = 0; i < rows->size(); ++i) {
        if (!rows->at(i).is_object())
            return fail(path,
                        "rows[" + std::to_string(i) + "] is not an object");
    }

    const Json* notes = doc->find("notes");
    if (!notes || !notes->is_array())
        return fail(path, "notes must be an array");
    for (std::size_t i = 0; i < notes->size(); ++i) {
        if (!notes->at(i).is_string())
            return fail(path,
                        "notes[" + std::to_string(i) + "] is not a string");
    }

    if (const Json* metrics = doc->find("metrics")) {
        if (!metrics->is_object())
            return fail(path, "metrics, when present, must be an object");
    }

    std::cout << "ok " << path << " (experiment="
              << experiment->as_string() << ", rows=" << rows->size()
              << ")\n";
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::cerr << "usage: bench_json_check BENCH_*.json...\n";
        return 2;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i)
        ok = check_file(argv[i]) && ok;
    return ok ? 0 : 1;
}
