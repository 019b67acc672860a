#include "frote/core/audit.hpp"

#include <ostream>
#include <sstream>

namespace frote {

namespace {
const char* mod_name(ModStrategy strategy) {
  switch (strategy) {
    case ModStrategy::kNone: return "none";
    case ModStrategy::kRelabel: return "relabel";
    case ModStrategy::kDrop: return "drop";
  }
  return "?";
}
}  // namespace

AuditRecord build_audit_record(const Dataset& input,
                               const FeedbackRuleSet& frs,
                               const FroteConfig& config,
                               const FroteResult& result) {
  AuditRecord record;
  record.original_rows = input.size();
  record.mod_strategy = config.mod_strategy;
  // Re-derive the modification counts from the input (a read-only scan,
  // which keeps the audit out of the hot loop).
  const std::size_t affected = config.mod_strategy == ModStrategy::kNone
                                   ? 0
                                   : disagreeing_rows(input, frs).size();
  if (config.mod_strategy == ModStrategy::kRelabel) {
    record.relabelled_rows = affected;
  } else if (config.mod_strategy == ModStrategy::kDrop) {
    record.dropped_rows = affected;
  }
  for (const auto& rule : frs.rules()) {
    record.rules.push_back(rule.to_string(input.schema()));
  }
  record.trace = result.trace;
  record.final_rows = result.augmented.size();
  record.synthetic_rows = result.instances_added;
  record.iterations_run = result.iterations_run;
  record.iterations_accepted = result.iterations_accepted;
  record.tau = config.tau;
  record.q = config.q;
  record.k = config.k;
  record.seed = config.seed;
  return record;
}

void write_audit_report(const AuditRecord& record, std::ostream& os) {
  os << "=== FROTE MODEL EDIT AUDIT ===\n";
  os << "[CONFIG] tau=" << record.tau << " q=" << record.q
     << " k=" << record.k << " seed=" << record.seed << "\n";
  os << "[RULES] " << record.rules.size() << " feedback rule(s)\n";
  for (const auto& rule : record.rules) {
    os << "  " << rule << "\n";
  }
  os << "[MODIFICATION] strategy=" << mod_name(record.mod_strategy)
     << " relabelled=" << record.relabelled_rows
     << " dropped=" << record.dropped_rows << "\n";
  os << "[ITERATIONS] run=" << record.iterations_run
     << " accepted=" << record.iterations_accepted << "\n";
  for (const auto& point : record.trace) {
    os << "  iter=" << point.iteration << " N=" << point.instances_added
       << " J_hat_bar=" << point.train_j_hat_bar
       << (point.accepted ? " ACCEPTED" : " rejected") << "\n";
  }
  os << "[RESULT] rows " << record.original_rows << " -> "
     << record.final_rows << " (+" << record.synthetic_rows
     << " synthetic)\n";
}

std::string audit_report_string(const AuditRecord& record) {
  std::ostringstream os;
  write_audit_report(record, os);
  return os.str();
}

}  // namespace frote
