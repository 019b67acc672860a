// Rule authoring and governance: textual rules in, audited edit out (§6).
//
// A compliance officer writes policy rules as text, the system parses and
// validates them against the dataset schema, checks for conflicts between
// authors, runs the FROTE edit, and emits the audit report that the paper's
// governance discussion calls for (original data → rules → new dataset
// lineage).
//
// Build & run:  ./build/examples/example_rule_authoring
#include <iostream>
#include <string>

#include "frote/frote_api.hpp"

using namespace frote;

int main() {
  Dataset data = make_dataset(UciDataset::kAdult, 2000);
  const Schema& schema = data.schema();

  // 1. Policy rules arrive as text (e.g. from a review UI or a config file).
  const std::string policy_text = R"(
# Policy update 2026-06: broaden the favourable decision band.
IF age > 40 AND hours_per_week > 45 THEN class = >50K
IF education = 'advanced' THEN Y ~ [<=50K: 0.2, >50K: 0.8]
)";
  std::cout << "Parsing policy rules...\n";
  auto rules = parse_rules(policy_text, schema);
  for (const auto& rule : rules) {
    std::cout << "  parsed: " << rule.to_string(schema) << "\n";
  }

  // 2. Validate: schema errors are caught at parse time; conflicts between
  //    rules are detected and resolved before any edit happens (§3.1).
  try {
    parse_rule("IF salary > 100 THEN class = >50K", schema);
  } catch (const Error& e) {
    std::cout << "\nRejected malformed rule as expected:\n  " << e.what()
              << "\n";
  }
  FeedbackRuleSet frs(std::move(rules));
  const auto resolved = resolve_all_conflicts(frs, schema);
  std::cout << "\nConflict pairs resolved: " << resolved << "\n";

  // 3. Edit the model. The learner comes from the shared registry (the same
  //    names the CLI accepts); the loop steps the session itself and logs
  //    each acceptance for the governance log alongside the structured
  //    audit record.
  const auto learner = make_named_learner("rf").value();
  const auto engine =
      Engine::Builder().rules(frs).tau(15).eta(40).seed(2026).build().value();
  std::cout << "\nRunning the edit...\n";
  auto session = engine.open(data, *learner).value();
  while (!session.finished()) {
    const StepReport report = session.step();
    if (report.accepted()) {
      std::cout << "  accepted batch, cumulative synthetic rows: "
                << report.instances_added << "\n";
    }
  }
  const auto result = std::move(session).result();

  // 4. Emit the audit report: the full lineage of the edit.
  const auto record = build_audit_record(data, frs, engine.config(), result);
  std::cout << "\n" << audit_report_string(record);

  // 5. The rules in the report are re-parsable — audits can be replayed.
  std::cout << "\nReplaying rules from the audit record...\n";
  for (const auto& text : record.rules) {
    const auto replayed = parse_rule(text, schema);
    std::cout << "  ok: " << replayed.to_string(schema) << "\n";
  }
  return 0;
}
