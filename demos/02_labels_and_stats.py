"""Segment annotations -> per-frame labels -> corpus statistics.

An annotation tiles an utterance with real/fake segments; labels are
compiled at 160 ms resolution by majority occupancy (exact ties go to
fake). Three label settings are supported; padding frames are always 0.
"""

from tdl import Segment, SegmentAnnotation, compile_labels, dataset_stats

ann = SegmentAnnotation("utt0", 3.2, [
    Segment(0.00, 1.20, "real"),
    Segment(1.20, 1.90, "fake"),   # spliced synthetic span
    Segment(1.90, 3.20, "real"),
])

for setting in ("real1_fake0", "real0_fake1", "boundary1"):
    labels = compile_labels([ann], 0.16, padded_len=22, setting=setting)[0]
    print(f"{setting:>12}: {labels.labels.tolist()}  (true={labels.true_labels})")

# majority rule at work: frame 7 spans 1.12-1.28 s, 80 ms real vs 80 ms
# fake -> tie -> fake; boundary1 marks two frames on each side of the
# two transitions

corpus = [
    ann,
    SegmentAnnotation("utt1", 0.96, [Segment(0.0, 0.96, "real")]),
    SegmentAnnotation("utt2", 0.64, [Segment(0.0, 0.64, "fake")]),
]
stats = dataset_stats(corpus, 0.16)
print(f"\ncorpus: {stats.num_utterances} utterances, {stats.num_frames} frames")
print(f"fake frames     : {stats.frame_fake_pct:.2f} %")
print(f"fake utterances : {stats.utterance_fake_pct:.2f} %")
