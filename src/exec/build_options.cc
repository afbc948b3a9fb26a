#include "exec/build_options.h"

namespace gsr::exec {

ScopedBuildPool::ScopedBuildPool(const BuildOptions& options) {
  const unsigned threads = options.num_threads == 0
                               ? ThreadPool::DefaultThreads()
                               : options.num_threads;
  if (threads > 1) pool_.emplace(threads);
}

}  // namespace gsr::exec
