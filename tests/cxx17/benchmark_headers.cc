// The repository headers perfbench/measure.cc includes, compiled as
// C++17 the way the benchmark's own build compiles them: a C++20-only
// facility in any of them, or in a header they include, fails the
// tier-1 build here instead of the benchmark.
#include "common/json.h"
#include "core/experiment.h"
#include "core/serving_system.h"
#include "obs/lineage.h"
#include "obs/trace.h"
