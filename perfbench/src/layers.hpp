// Layer probes shared by the workloads: the single-threaded core and
// backend replay, compile timing, the engine's public counters, and the
// tape hash of generated catalogues and requests.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/case_base.hpp"
#include "core/request.hpp"
#include "core/retrieval.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// Replays `requests` single-threaded on `generation`, `passes` times, once
/// through Retriever::retrieve_compiled (core.retrieve spans) and once
/// through the cpu-simd backend's score() (backend.score spans).  Fills
/// the core.* effort metrics and backend.score_us_p50, fails the report
/// when the two paths disagree, and returns each request's median
/// retrieve_compiled time in µs.
std::vector<double> replay_core(const qfa::serve::Generation& generation,
                                std::span<const qfa::cbr::Request> requests,
                                const qfa::cbr::RetrievalOptions& options, std::size_t passes,
                                Tracer& tracer, Report& report);

/// Median seconds of `repeats` CompiledCaseBase constructions of the
/// generation's catalogue (core.compile spans) into core.compile_s.
void time_compile(const qfa::serve::Generation& generation, std::size_t repeats,
                  Tracer& tracer, Values& out);

/// serve.shard_max_frac, serve.refused_frac, serve.cow_shared_frac and the
/// backend fault-ladder counters from one EngineStats snapshot.
void engine_layer_values(const qfa::serve::EngineStats& stats, Values& out);

void hash_case_base(const qfa::cbr::CaseBase& cb, TapeHash& hash);
void hash_request(const qfa::cbr::Request& request, TapeHash& hash);

}  // namespace perfbench
