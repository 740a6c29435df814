#!/usr/bin/env bash
# Run every leaf command of the CLI from this checkout's source into OUTDIR, checking warm
# re-sweeps and double runs with `cmp`. Every output is deterministic, so two checkouts compare
# with one `diff -r` of their OUTDIRs (at a fixed OPENBLAS_NUM_THREADS).
# Usage: tools/walkthrough.sh OUTDIR
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
hrrs() { python3 -m hrrs.cli "$@"; }
mkdir -p "$1" && cd "$1"
hrrs synth --classes 3 --per-class 20 --shape 6,6,32 --separation 8 --seed 42 --out ds
# maps beyond float32's range fail before any write: the dataset is left whole
cp ds/manifest.json manifest-before.json
if hrrs synth --classes 3 --per-class 20 --shape 6,6,32 --separation 1e308 --seed 42 --out ds 2> resynth.err; then
  echo "synth --separation 1e308 exited 0" >&2
  exit 1
fi
grep -q '^error: .*float32 range' resynth.err
cmp ds/manifest.json manifest-before.json
rm resynth.err manifest-before.json
hrrs codebook train --kind kmeans --k 8 --manifest ds/manifest.json --out cb
hrrs encode --manifest ds/manifest.json --encoder vlad --model cb --out feats
hrrs index build --features feats --manifest ds/manifest.json --out idx
hrrs query --index idx --id class00-000 --out ranked.csv
hrrs query --index idx --all --long --out ranked-all.csv
hrrs eval --manifest ds/manifest.json --features feats --out report
hrrs codebook train --kind gmm --k 4 --manifest ds/manifest.json --out gmm
hrrs encode --manifest ds/manifest.json --encoder ifk --model gmm --out ifk-feats
for run in 1 2; do
  hrrs codebook train --kind gmm --k 4 --relu --manifest ds/manifest.json --out gmm-relu-$run
  hrrs encode --manifest ds/manifest.json --encoder ifk --relu --model gmm-relu-$run --out ifk-relu-$run
done
cmp ifk-relu-1/matrix.ftns ifk-relu-2/matrix.ftns
# 10,140 x 512 descriptors: EM runs over several row tiles
hrrs synth --classes 3 --per-class 20 --shape 13,13,512 --seed 42 --out ds-c5
for run in 1 2; do
  hrrs codebook train --kind gmm --k 4 --max-iter 5 --manifest ds-c5/manifest.json --out gmm-c5-$run
  hrrs encode --manifest ds-c5/manifest.json --encoder ifk --model gmm-c5-$run --out ifk-c5-$run
done
for f in gmm-c5-1/*.ftns ifk-c5-1/*.ftns; do cmp "$f" "${f/-c5-1\//-c5-2/}"; done
# one component (every responsibility 1.0) and the sweep's default k for ifk
for k in 1 100; do
  hrrs codebook train --kind gmm --k $k --max-iter 5 --manifest ds-c5/manifest.json --out gmm-c5-k$k
  hrrs encode --manifest ds-c5/manifest.json --encoder ifk --model gmm-c5-k$k --out ifk-c5-k$k
done
hrrs pca fit --features feats --d 8 --out pca
hrrs pca apply --features feats --model pca --out feats-pca8
for run in 1 2; do
  hrrs head train --manifest ds/manifest.json --hidden1 8 --hidden2 8 --max-epochs 1 --seed 1 --out head-$run
  hrrs encode --manifest ds/manifest.json --encoder ldcnn --head head-$run --out ldcnn-feats-$run
done
for f in head-1/*.ftns head-1/history.csv; do cmp "$f" "head-2/${f#head-1/}"; done
cmp ldcnn-feats-1/matrix.ftns ldcnn-feats-2/matrix.ftns
hrrs pca sweep --features feats --manifest ds/manifest.json --dims 2,4,8,16 --out dims.csv
echo '{"dataset": {"manifest": "ds/manifest.json"}, "encoder": {"kind": ["bovw", "vlad", "ifk"], "k": 8}}' > sweep.json
hrrs sweep --config sweep.json --out sweep-out
test "$(wc -l < sweep-out/sweep.csv)" -eq 4
cp sweep-out/sweep.csv sweep-cold.csv
hrrs sweep --config sweep.json --out sweep-out | tee sweep-warm.log
cmp sweep-out/sweep.csv sweep-cold.csv
test "$(grep -c '^cache hit' sweep-warm.log)" -eq 3
echo '{"dataset": {"manifest": "ds/manifest.json"}, "encoder": {"kind": ["bovw", "vlad"], "k": 2, "relu": [false, true]}}' > sweep-k2.json
hrrs sweep --config sweep-k2.json --out sweep-k2
test "$(wc -l < sweep-k2/sweep.csv)" -eq 5
cp sweep-k2/sweep.csv sweep-k2-cold.csv
hrrs sweep --config sweep-k2.json --out sweep-k2 | tee sweep-k2-warm.log
cmp sweep-k2/sweep.csv sweep-k2-cold.csv
test "$(grep -c '^cache hit' sweep-k2-warm.log)" -eq 4
# one PCA decomposition per (kind, relu) pair serves both dims, cold, warm and partly warm
echo '{"dataset": {"manifest": "ds/manifest.json"}, "encoder": {"kind": ["bovw", "vlad"], "k": 8}, "pca": {"dims": [2, 4]}}' > sweep-pca.json
hrrs sweep --config sweep-pca.json --out sweep-pca
test "$(wc -l < sweep-pca/sweep.csv)" -eq 5
cp sweep-pca/sweep.csv sweep-pca-cold.csv
hrrs sweep --config sweep-pca.json --out sweep-pca | tee sweep-pca-warm.log
cmp sweep-pca/sweep.csv sweep-pca-cold.csv
test "$(grep -c '^cache hit' sweep-pca-warm.log)" -eq 4
rm "$(ls sweep-pca/cache/*.json | head -n 1)"
hrrs sweep --config sweep-pca.json --out sweep-pca | tee sweep-pca-partial.log
cmp sweep-pca/sweep.csv sweep-pca-cold.csv
test "$(grep -c '^cache hit' sweep-pca-partial.log)" -eq 3
# no publish leaves its temp file behind
if [ -n "$(find . -name '*.tmp')" ]; then
  find . -name '*.tmp' >&2
  exit 1
fi
