#include "pnm/core/campaign.hpp"

#include "pnm/core/eval_store.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

std::string bool_str(bool b) { return b ? "1" : "0"; }

}  // namespace

std::string eval_fingerprint(const FlowConfig& flow, const EvalConfig& eval,
                             const std::string& backend) {
  // Canonical text over every knob that can change an evaluation result.
  // Hashing the text (rather than concatenating fields positionally)
  // keeps the fingerprint one short whitespace-free token while staying
  // sensitive to each field.
  std::string canon;
  canon.reserve(512);
  append_kv(canon, "store_version", std::to_string(EvalStore::kFormatVersion));
  append_kv(canon, "backend", backend);
  append_kv(canon, "dataset", flow.dataset_name);
  append_kv(canon, "flow_seed", std::to_string(flow.seed));
  // Tech node: the cost side of every stored DesignPoint is priced in this
  // library, so results from different nodes must never share a store.
  append_kv(canon, "tech", flow.tech_name);
  // Resolve defaulted hidden widths so "default" and "explicitly the
  // default" fingerprint identically.
  const std::vector<std::size_t> hidden =
      flow.hidden.empty() ? MinimizationFlow::default_hidden(flow.dataset_name)
                          : flow.hidden;
  std::string hidden_str;
  for (std::size_t h : hidden) hidden_str += std::to_string(h) + ",";
  append_kv(canon, "hidden", hidden_str);
  // The baseline precision and the split are constants that keep the
  // tokens they had as FlowConfig fields, so every store keeps its name.
  append_kv(canon, "baseline_bits", std::to_string(kBaselineWeightBits));
  append_kv(canon, "train_frac", format_double_roundtrip(kTrainFrac));
  append_kv(canon, "val_frac", format_double_roundtrip(kValFrac));
  append_kv(canon, "test_frac", format_double_roundtrip(kTestFrac));
  // Baseline training recipe (identical in eval.train, serialized once).
  // The recipe's fixed settings keep the tokens they had as TrainConfig
  // fields, so every existing store keeps its name: the batch and Adam's
  // beta1/beta2/eps from their constants, and the settings the one recipe
  // no longer has as literals of their last values (lr_decay 1: none;
  // SGD's momentum, unused by Adam; weight_decay 0; optimizer 1: Adam;
  // shuffle 1: always).
  const simd::AdamStep adam;
  append_kv(canon, "train_epochs", std::to_string(flow.train.epochs));
  append_kv(canon, "batch", std::to_string(kTrainBatch));
  append_kv(canon, "lr", format_double_roundtrip(flow.train.lr));
  append_kv(canon, "lr_decay", "1");
  append_kv(canon, "momentum", "0.90000000000000002");
  append_kv(canon, "weight_decay", "0");
  append_kv(canon, "optimizer", "1");
  append_kv(canon, "adam_beta1", format_double_roundtrip(adam.beta1));
  append_kv(canon, "adam_beta2", format_double_roundtrip(adam.beta2));
  append_kv(canon, "adam_eps", format_double_roundtrip(adam.eps));
  append_kv(canon, "shuffle", "1");
  // Evaluation-side knobs.
  append_kv(canon, "eval_seed", std::to_string(eval.seed));
  append_kv(canon, "input_bits", std::to_string(eval.input_bits));
  append_kv(canon, "finetune_epochs", std::to_string(eval.finetune_epochs));
  append_kv(canon, "cluster_scope",
            std::to_string(static_cast<int>(eval.cluster_scope)));
  append_kv(canon, "share_when_clustered", bool_str(eval.share_only_when_clustered));
  append_kv(canon, "share_products", bool_str(eval.bespoke.share_products));
  append_kv(canon, "use_csd", bool_str(eval.bespoke.use_csd));
  append_kv(canon, "share_subexpr", bool_str(eval.bespoke.share_subexpressions));
  append_kv(canon, "use_test_set", bool_str(eval.use_test_set));
  // The fine-tuning numerics generation: a declared numerics change bumps
  // the constant, so stored results never mix generations.
  append_kv(canon, "finetune_math", kFinetuneMath);
  return fnv1a64_hex(canon);
}

}  // namespace pnm
