#!/usr/bin/env bash
# Checks that two divsum source trees keep the numeric contract. A fixed
# synth -> train -> summarize -> evaluate -> ablate -> partition-map pipeline
# runs through the CLI of BASE_SRC and of HEAD_SRC, and every output file and
# each command's stdout (<step>.stdout) must be byte-identical; then each
# tree summarizes the other's checkpoints, and must write the bytes the
# other tree wrote. The ablation runs every axis (similarity, radius, losses,
# variant) on the README's ablation corpus, and partition-map writes the
# README's four maps (dot, cosine, l2, and dot with point 0 doubled) on a
# 20 x 20 grid.
# Local attention's zero window boundary runs with LCA on in two models:
# off (literal variant, R=1) and no_gda (contextual, R=2, LCA alone); the
# rest use clamp.
# Beside each summary CSV, whose scores are rounded to 8 decimals, goes
# <model>.scores: every video's frame scores as raw float64 bytes, so a
# one-ulp change in scoring shows as well. Each model also summarizes a
# long video (T=1100) of its feature dim into <model>.long.*, so global
# attention's row blocks and transpose tiles are compared at length.
# Every corpus a model summarizes is summarized once more with its change
# points stripped, so KTS picks the shots with the summarize path's
# max_shots = T//4 (T = 40, 300 and 1100): <model>.kts holds, per video,
# the shot count, the shot starts and the frame mask as little-endian
# int64. The starts are compared too because most of these masks are empty.
# Commands run from their output directory with relative paths. WORK must
# not exist yet.
#
#   tests/contract_compare.sh BASE_SRC HEAD_SRC WORK
#
# Exits 1 and names every differing file when the trees disagree.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC WORK" >&2
  exit 2
fi
base=$(cd "$1" && pwd) head=$(cd "$2" && pwd)
mkdir "$3"
work=$(cd "$3" && pwd)

step() {  # step NAME ARGS...: one CLI command of the tree $src, its stdout kept as NAME.stdout
  local name=$1
  shift
  PYTHONPATH="$src" python3 -c \
    'import sys; from divsum.cli import main; sys.exit(main(sys.argv[1:]))' "$@" \
    > "$name.stdout"
}

scores() {  # scores CKPT DATA OUT: the tree $src's OUT.scores and OUT.kts of every video in DATA
  PYTHONPATH="$src" python3 - "$@" <<'EOF'
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from divsum.data import load_dataset
from divsum.segmentation import summarize_video
from divsum.training import load_checkpoint

ckpt, data, out = sys.argv[1:]
params = load_checkpoint(ckpt)[0]
scores, shots = [], []
for video in load_dataset(data):
    detail = summarize_video(replace(video, change_points=None), params, 0.2)  # so KTS runs
    starts = detail.partition.change_points
    scores.append(np.asarray(detail.frame_scores, dtype=np.float64))
    shots += [np.array([starts.size]), starts, detail.mask.frame_mask]
Path(f"{out}.scores").write_bytes(b"".join(a.tobytes() for a in scores))
Path(f"{out}.kts").write_bytes(b"".join(a.astype("<i8").tobytes() for a in shots))
EOF
}

# checkpoint name and the feature dim of the corpora it summarizes: d<dim>,
# which it was trained on, and long<dim>
models="sup:16 unsup:16 off:16 no_gda:16 no_lca:16 wide:64"

summarize_all() (  # summarize_all SRC RUN OUT: the tree SRC scores every checkpoint in RUN
  src=$1
  mkdir -p "$3"
  cd "$3"
  for model in $models; do
    name=${model%%:*} dim=${model#*:}
    for run in "$name:d$dim" "$name.long:long$dim"; do
      out=${run%%:*} data=$2/${run#*:}
      step "summarize_$out" summarize --checkpoint "$2/$name.ckpt" --data "$data" \
        --budget-ratio 0.2 --out "$out.summary.csv"
      scores "$2/$name.ckpt" "$data" "$out"
    done
  done
)

pipeline() (  # pipeline SRC OUT: the whole CLI pipeline of the tree SRC, written into OUT
  src=$1
  mkdir "$2"
  cd "$2"
  step synth_d16 synth --out d16 --videos 6 --frames 40 --dim 16 --shots 6 --noise 0.1 \
    --seed 0 --budget-ratio 0.2
  step synth_d64 synth --out d64 --videos 2 --frames 300 --dim 64 --shots 12 --seed 1
  step synth_long16 synth --out long16 --videos 1 --frames 1100 --dim 16 --shots 20 --seed 2
  step synth_long64 synth --out long64 --videos 1 --frames 1100 --dim 64 --shots 20 --seed 3

  # every key off its default, except use_gda and use_lca, which have runs of their own
  printf '%s\n' learning_rate=0.003 weight_decay=0.0001 epochs=6 alpha=0.2 beta=0.5 \
    sim_kind=cosine scale_q=3 neighbor_R=1 lca_variant=literal window_boundary=zero \
    use_positions=false supervised=false recon_final_sigmoid=true early_stop=true \
    patience=2 min_delta=0.5 seed=3 > off.cfg
  printf '%s\n' use_gda=false sim_kind=cosine window_boundary=zero > no_gda.cfg
  printf '%s\n' use_lca=false window_boundary=zero > no_lca.cfg

  train=(--data d16 --epochs 4 --lr 3e-3 --radius 2 --seed 0)
  step train_sup train "${train[@]}" --out sup.ckpt
  step train_unsup train "${train[@]}" --out unsup.ckpt --unsupervised
  step train_off train --data d16 --config off.cfg --out off.ckpt
  step train_no_gda train "${train[@]}" --config no_gda.cfg --out no_gda.ckpt
  step train_no_lca train "${train[@]}" --config no_lca.cfg --out no_lca.ckpt
  step train_wide train --data d64 --epochs 2 --lr 3e-3 --radius 3 --seed 0 --sim dot \
    --out wide.ckpt
  summarize_all "$src" . .

  fold=(--data d16 --folds 2 --epochs 2 --lr 3e-3 --radius 1 --budget-ratio 0.2 --seed 0)
  step evaluate evaluate "${fold[@]}" --splits splits.json --csv evaluate.csv \
    --report evaluate.txt --baseline random
  step evaluate_human evaluate "${fold[@]}" --baseline human

  # the ablation corpus, all four axes and the partition maps of the README's
  # experiments, at reduced sizes
  step synth_abl synth --out abl --videos 10 --frames 32 --dim 8 --shots 6 --noise 0.25 \
    --seed 0 --budget-ratio 0.2
  for axis in similarity radius losses variant; do
    step "ablate_$axis" ablate --data abl --axis "$axis" --repeats 1 --folds 1 --epochs 1 \
      --lr 3e-3 --weight-decay 0 --radius 1 --budget-ratio 0.2 --seed 0 \
      --out "ablate_$axis.csv"
  done
  for sim in dot cosine l2; do
    step "partition_$sim" partition-map --seed 0 --num-points 3 --sim "$sim" --grid-size 20 \
      --out "partition_$sim.csv"
  done
  # the dot map with point 0 doubled: the seed-0 points, written by repr
  step partition_dot_doubled partition-map --sim dot --grid-size 20 \
    --out partition_dot_doubled.csv --points \
    "1.219138699714327,0.6316587420221925;0.13277881914895576,0.11322210842282328;0.750616191360218,0.8302044618221774"
)

pipeline "$base" "$work/base"
pipeline "$head" "$work/head"
summarize_all "$head" "$work/base" "$work/head_on_base"
summarize_all "$base" "$work/head" "$work/base_on_head"

status=0
diff -rq "$work/base" "$work/head" || status=1
for pair in head_on_base:base base_on_head:head; do
  cross=$work/${pair%%:*} own=$work/${pair#*:}
  for f in "$cross"/*; do
    cmp "$f" "$own/${f##*/}" || status=1
  done
done
if [ "$status" -ne 0 ]; then
  echo "the trees disagree: see the files named above" >&2
  exit 1
fi
echo "contract holds: $(find "$work/base" -type f | wc -l) files and stdouts identical," \
  "$(find "$work/head_on_base" -type f | wc -l) cross-summary files each way"
