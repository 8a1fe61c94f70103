#pragma once
/// \file workloads.hpp
/// The three benchmark workloads. Each one generates its inputs from the
/// run seed, measures for `args.seconds`, checks its outputs through the
/// correctness gates and fills `out`. With an enabled tracer the same run
/// also records spans around every layer call and finishes with the serial
/// decomposed replay (see replay.hpp), filling the per-layer metrics.

#include "bench.hpp"

namespace perfbench {

void run_mega_board(const Args& args, Tracer& tracer, RunResult& out);
void run_paper_boards(const Args& args, Tracer& tracer, RunResult& out);
void run_service_stream(const Args& args, Tracer& tracer, RunResult& out);

}  // namespace perfbench
