#include "costmodel/chain_costs.h"

#include "support/error.h"

namespace pipemap {

ChainCostModel::ChainCostModel(const ChainCostModel& other) {
  *this = other;
}

ChainCostModel& ChainCostModel::operator=(const ChainCostModel& other) {
  if (this == &other) return *this;
  exec_.clear();
  icom_.clear();
  ecom_.clear();
  for (const auto& e : other.exec_) exec_.push_back(e->Clone());
  for (const auto& c : other.icom_) icom_.push_back(c->Clone());
  for (const auto& c : other.ecom_) ecom_.push_back(c->Clone());
  memory_ = other.memory_;
  return *this;
}

int ChainCostModel::AddTask(std::unique_ptr<ScalarCost> exec,
                            MemorySpec memory) {
  PIPEMAP_CHECK(exec != nullptr, "AddTask: exec cost must not be null");
  if (!exec_.empty()) {
    icom_.push_back(std::make_unique<ZeroScalarCost>());
    ecom_.push_back(std::make_unique<ZeroPairCost>());
  }
  exec_.push_back(std::move(exec));
  memory_.push_back(memory);
  return num_tasks() - 1;
}

void ChainCostModel::SetEdge(int edge, std::unique_ptr<ScalarCost> icom,
                             std::unique_ptr<PairCost> ecom) {
  CheckEdge(edge);
  PIPEMAP_CHECK(icom != nullptr && ecom != nullptr,
                "SetEdge: cost functions must not be null");
  icom_[edge] = std::move(icom);
  ecom_[edge] = std::move(ecom);
}

double ChainCostModel::Exec(int task, int procs) const {
  CheckTask(task);
  return exec_[task]->Eval(procs);
}

double ChainCostModel::ICom(int edge, int procs) const {
  CheckEdge(edge);
  return icom_[edge]->Eval(procs);
}

double ChainCostModel::ECom(int edge, int sender_procs,
                            int receiver_procs) const {
  CheckEdge(edge);
  return ecom_[edge]->Eval(sender_procs, receiver_procs);
}

const MemorySpec& ChainCostModel::Memory(int task) const {
  CheckTask(task);
  return memory_[task];
}

const ScalarCost& ChainCostModel::ExecFn(int task) const {
  CheckTask(task);
  return *exec_[task];
}

const ScalarCost& ChainCostModel::IComFn(int edge) const {
  CheckEdge(edge);
  return *icom_[edge];
}

const PairCost& ChainCostModel::EComFn(int edge) const {
  CheckEdge(edge);
  return *ecom_[edge];
}

double ChainCostModel::ModuleBody(int first, int last, int procs) const {
  CheckTask(first);
  CheckTask(last);
  PIPEMAP_CHECK(first <= last, "ModuleBody: first must not exceed last");
  double total = 0.0;
  for (int t = first; t <= last; ++t) total += exec_[t]->Eval(procs);
  for (int e = first; e < last; ++e) total += icom_[e]->Eval(procs);
  return total;
}

MemorySpec ChainCostModel::ModuleMemory(int first, int last) const {
  CheckTask(first);
  CheckTask(last);
  PIPEMAP_CHECK(first <= last, "ModuleMemory: first must not exceed last");
  MemorySpec total;
  for (int t = first; t <= last; ++t) total = total + memory_[t];
  return total;
}

void ChainCostModel::CheckTask(int task) const {
  PIPEMAP_CHECK(task >= 0 && task < num_tasks(), "task index out of range");
}

void ChainCostModel::CheckEdge(int edge) const {
  PIPEMAP_CHECK(edge >= 0 && edge < num_edges(), "edge index out of range");
}

}  // namespace pipemap
