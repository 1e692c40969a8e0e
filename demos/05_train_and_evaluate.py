"""End-to-end: synthesize a corpus, train the detector, evaluate it.

A scaled-down run of the full pipeline (about half a minute): Gaussian
mean-shift features stand in for a real front-end, and the frame-level
scores are pooled into EER / precision / recall / F1 with padding
stripped. Features stay as synthesized, unpadded: the model pads each
block itself. The report is the JSON object that `tdl eval` writes.
"""

from tdl import (
    compile_labels,
    compute_report,
    desk_benchmark_spec,
    render_report,
    score_pool,
    synth_dataset,
    train,
)
from tdl.model import decode_checkpoint, desk_config

spec = desk_benchmark_spec(num_utterances=120)
features, annotations = synth_dataset(spec, rng_seed=7)
config = desk_config(epochs=12)

labels = compile_labels(annotations, config.label_resolution_s, config.label_len,
                        config.label_setting)
pairs = list(zip(features, labels))
train_set, dev_set, test_set = pairs[:80], pairs[80:100], pairs[100:]

print(f"training on {len(train_set)} utterances "
      f"({config.feat_dim}-dim features, {config.t_max} frames)")
result = train(config, train_set, dev_set)
for record in result.records[::3] + result.records[-1:]:
    print(f"  epoch {record.epoch:2d}  loss {record.mean_total:.4f}  "
          f"lr {record.learning_rate:.1e}  dev EER {record.dev_eer_pct:.2f} %")

best = decode_checkpoint(result.best_checkpoint)
report = compute_report(score_pool(best, test_set), threshold=0.5)
text, _ = render_report(report)
print()
print(text)
