#ifndef GSR_EXEC_BUILD_OPTIONS_H_
#define GSR_EXEC_BUILD_OPTIONS_H_

#include <optional>

#include "exec/thread_pool.h"

namespace gsr::exec {

/// How an index build distributes its work. Threaded through MethodFactory
/// and CondensedNetwork into every index constructor, so one worker set
/// drives the whole pipeline: STR R-tree packing, interval-labeling
/// construction, and GeoReach SPA-graph propagation.
///
/// Every parallel build stage in the codebase is *deterministic*: it
/// produces bit-identical indexes and stats at any thread count (see
/// DESIGN.md, "Index construction pipeline").
struct BuildOptions {
  /// Worker threads for construction. 1 = serial (the default, and the
  /// exact seed behaviour); 0 = one worker per hardware thread.
  unsigned num_threads = 1;
};

/// Resolves BuildOptions into the ThreadPool* used for one build: spawns
/// a private pool when num_threads asks for parallelism, and stays null
/// (= serial everywhere) otherwise.
class ScopedBuildPool {
 public:
  explicit ScopedBuildPool(const BuildOptions& options);

  /// Null means "run serial".
  ThreadPool* get() { return pool_ ? &*pool_ : nullptr; }

 private:
  std::optional<ThreadPool> pool_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_BUILD_OPTIONS_H_
