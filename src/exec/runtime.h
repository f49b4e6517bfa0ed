// PlanRuntime: the materialized connections (data queue + control
// channel per edge) for a finalized QueryPlan, with per-operator
// input/output lookup tables. Shared by all executors.

#ifndef NSTREAM_EXEC_RUNTIME_H_
#define NSTREAM_EXEC_RUNTIME_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/query_plan.h"
#include "stream/connection.h"

namespace nstream {

class PlanRuntime {
 public:
  /// Build one Connection per plan edge, each queue built from
  /// `queue_options`.
  static Result<std::unique_ptr<PlanRuntime>> Create(
      QueryPlan* plan, const DataQueueOptions& queue_options);

  QueryPlan* plan() { return plan_; }

  /// Connection feeding input `port` of operator `id` (never null for a
  /// finalized plan).
  Connection* input_conn(int64_t id, int port) {
    return inputs_[static_cast<size_t>(id)][static_cast<size_t>(port)];
  }
  /// Connection leaving output `port` of operator `id`.
  Connection* output_conn(int64_t id, int port) {
    return outputs_[static_cast<size_t>(id)][static_cast<size_t>(port)];
  }

  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }

 private:
  QueryPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<Connection>> connections_;
  // Indexed [op][port].
  std::vector<std::vector<Connection*>> inputs_;
  std::vector<std::vector<Connection*>> outputs_;
};

}  // namespace nstream

#endif  // NSTREAM_EXEC_RUNTIME_H_
