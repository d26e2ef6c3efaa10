#!/bin/sh
# The repo's verify flow: formatting, build, tests — what CI runs and
# what a PR must keep green.
#
#   tools/check.sh            # check everything
#   tools/check.sh --fix      # auto-promote dune-file formatting first
#
# Formatting is enforced for dune files only (dune-project limits @fmt
# with `enabled_for dune`): the pinned .ocamlformat records the OCaml
# style, but the check must pass in environments without the ocamlformat
# binary installed.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fix" ]; then
  dune build @fmt --auto-promote
else
  dune build @fmt
fi
dune build
dune runtest
# Fleet smoke: replay a 3-job trace through every scheduling policy. The
# fleet's simulated-time watchdog makes an admission deadlock fail loudly
# (Fleet.Deadlock names the wedged job id) instead of hanging CI.
dune exec bench/main.exe -- --smoke --scale small fleet
# Simulator fast-path smoke: drive a small transfer storm through both
# fabric allocators; the bench fails loudly if the incremental path ever
# diverges from the from-scratch reference (see docs/PERF.md).
dune exec bench/main.exe -- --smoke sim
# Fusion smoke: run the fusion-friendly apps with --fuse off vs on and
# check both against the sequential reference (see docs/FUSION.md).
dune exec bench/main.exe -- --smoke fusion
# Scale-out smoke: jacobi + spmv on a spec-built machine, 1-D vs 2-D
# decomposition crossed with star vs ring collectives; the bench fails
# loudly if any combination diverges from the sequential reference
# (see docs/TOPOLOGY.md).
dune exec bench/main.exe -- --smoke scale
# The CLI must reject a --gpus count its --machine spec cannot supply
# (printable error, no silent clamp).
if dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster:2x2 --gpus 9 >/dev/null 2>&1; then
  echo "check.sh: accc accepted --gpus 9 on a 4-GPU machine" >&2
  exit 1
fi
# A kernel's integer division by zero is a user error: exit 1 with a
# file:line:col message, never an uncaught exception.
divz_tmp="$(mktemp -d)"
cat > "$divz_tmp/divz.c" <<'SRC'
void main() {
  int n = 4; int a[n]; int i; int z = 0;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { a[i] = i / z; }
}
SRC
divz_status=0
dune exec bin/accc.exe -- run "$divz_tmp/divz.c" > /dev/null 2> "$divz_tmp/err" || divz_status=$?
if [ "$divz_status" -ne 1 ] || ! grep -q 'divz\.c:4:[0-9]*: integer division by zero' "$divz_tmp/err"; then
  echo "check.sh: kernel division by zero did not exit 1 with a located message" >&2
  cat "$divz_tmp/err" >&2
  exit 1
fi
# A user-function call inside a kernel is a user error too: exit 1 with
# the call's location.
cat > "$divz_tmp/ucall.c" <<'SRC'
double sq(double v) { return v * v; }
void main() {
  int n = 4; double a[n]; int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { a[i] = sq(i); }
}
SRC
ucall_status=0
dune exec bin/accc.exe -- run "$divz_tmp/ucall.c" > /dev/null 2> "$divz_tmp/err" || ucall_status=$?
if [ "$ucall_status" -ne 1 ] \
  || ! grep -q 'ucall\.c:5:[0-9]*: user function calls are not allowed in kernels: sq' "$divz_tmp/err"; then
  echo "check.sh: a kernel user call did not exit 1 with a located message" >&2
  cat "$divz_tmp/err" >&2
  exit 1
fi
# A localaccess clause that understates a kernel's reads is caught at run
# time on the GPU that reads outside its window: exit 1 naming the loop.
cat > "$divz_tmp/lying.c" <<'SRC'
void main() {
  int n = 64; double a[n]; double b[n]; int i;
  for (i = 0; i < n; i++) { a[i] = i; }
  #pragma acc parallel loop localaccess(a: stride(1))
  for (i = 0; i < n; i++) { b[i] = a[(i + 32) % n]; }
}
SRC
lying_status=0
dune exec bin/accc.exe -- run "$divz_tmp/lying.c" --gpus 2 > /dev/null 2> "$divz_tmp/err" \
  || lying_status=$?
if [ "$lying_status" -ne 1 ] || ! grep -q 'lying\.c:5:[0-9]*: localaccess violation' "$divz_tmp/err"; then
  echo "check.sh: a lying localaccess clause did not exit 1 with a located message" >&2
  cat "$divz_tmp/err" >&2
  exit 1
fi
rm -rf "$divz_tmp"
# Observability smoke: a traced run and a metered fleet replay, with the
# emitted artifacts validated for internal consistency (the trace parses
# and every flow event references a recorded span; every Prometheus
# series carries a # TYPE).
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --overlap on \
  --trace-json "$obs_tmp/run_trace.json" --blame > /dev/null
dune exec bin/accc.exe -- serve samples/fleet.trace \
  --metrics "$obs_tmp/fleet.prom" --trace-json "$obs_tmp/fleet_trace.json" > /dev/null
dune exec tools/validate_obs/validate_obs.exe -- trace "$obs_tmp/run_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- trace "$obs_tmp/fleet_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- metrics "$obs_tmp/fleet.prom"
echo "check.sh: all green"
