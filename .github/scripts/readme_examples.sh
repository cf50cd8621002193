#!/usr/bin/env bash
# Run the README's model3 (as written, with an unread key and with its first
# mode at omega 2), extract (as written, over-asked, with an imaginary constant
# added, and on the turning model3's signal, whose catalogue is pasted back as
# model3 params), omnes (as written and at m = omega = hbar = 1e-200) and
# bifriedrich examples, and a weakly separated model2, through the `decopoles`
# console script and check what they write.
#
#     readme_examples.sh README.md WORKDIR
#
# Each ```json block of the README is written to WORKDIR as <scenario>.json;
# the runs write their output directories there too.  Any failing command,
# check included, fails the script.
set -euo pipefail

readme=$(realpath "$1")
cd "$2"
python - "$readme" <<'PY'
import json, re, sys
readme = open(sys.argv[1], encoding="utf-8").read()
for block in re.findall(r"```json\n(.*?)```", readme, re.S):
    with open(json.loads(block)["scenario"] + ".json", "w", encoding="utf-8") as fh:
        fh.write(block)
PY
decopoles simulate --config model3.json --out out
# an unread key: exit 2 with one line naming it and the keys model3 reads, and no output
python - <<'PY'
import json
doc = json.load(open("model3.json", encoding="utf-8"))
doc["params"]["colour"] = "red"
json.dump(doc, open("model3_colour.json", "w", encoding="utf-8"))
PY
code=0
decopoles simulate --config model3_colour.json --out colour 2> colour.err || code=$?
test "$code" -eq 2
printf "%s\n" "config error: params: unknown keys ['colour']; allowed keys are ['boundary', 'equilibrium', 'hbar', 'khalfin', 'modes', 'rule']" | cmp - colour.err
test ! -e colour
decopoles extract --config extract.json --out fit
# over-asked: the README's signal has 3 modes; the fit at the effective rank, from
# the one SVD taken before any fit, must write the catalogue a 3-mode run writes
python - <<'PY'
import json
doc = json.load(open("extract.json", encoding="utf-8"))
doc["params"]["model_order"] = 5
json.dump(doc, open("extract_overasked.json", "w", encoding="utf-8"))
PY
decopoles extract --config extract_overasked.json --out fit_overasked 2> overasked.err
grep -q "requested 5 modes but the signal supports only 3; refitting at the effective rank" overasked.err
cmp fit/catalogue.json fit_overasked/catalogue.json
# a constant 0.5j on the README's signal: a catalogue's equilibrium is real, so the run exits 3 with
# one numeric failure: line naming the imaginary part, and no output
python - <<'PY'
import json
lines = open("out/signal.csv", encoding="utf-8").read().splitlines()
with open("signal_imaginary_offset.csv", "w", encoding="utf-8") as fh:
    fh.write(lines[0] + "\n")
    for line in lines[1:]:
        t, re, im = line.split(",")
        fh.write(f"{t},{re},{float(im) + 0.5!r}\n")
doc = json.load(open("extract.json", encoding="utf-8"))
doc["params"].update(input_csv="signal_imaginary_offset.csv", model_order=4)
json.dump(doc, open("extract_imaginary_offset.json", "w", encoding="utf-8"))
PY
code=0
decopoles extract --config extract_imaginary_offset.json --out imaginary_offset 2> imaginary_offset.err || code=$?
test "$code" -eq 3
printf "%s\n" "numeric failure: the equilibrium content has imaginary part 5.000e-01, above 6.000e-08 (1e-08 of the samples' largest |re| or |im|); a pole catalogue's equilibrium is real" | cmp - imaginary_offset.err
test ! -e imaginary_offset
# the paste workflow with a frequency: the README's model3 with its first mode at omega 2,
# extracted by the README's extract config, holds (omega, gamma) = (2, 0.1); pasted back as
# model3 params on the same grid, it writes the same signal within 1e-12 of its largest magnitude
python - <<'PY'
import json
doc = json.load(open("model3.json", encoding="utf-8"))
doc["params"]["modes"][0]["omega"] = 2.0
json.dump(doc, open("model3_turning.json", "w", encoding="utf-8"))
doc = json.load(open("extract.json", encoding="utf-8"))
doc["params"]["input_csv"] = "turning/signal.csv"
json.dump(doc, open("extract_turning.json", "w", encoding="utf-8"))
PY
decopoles simulate --config model3_turning.json --out turning
decopoles extract --config extract_turning.json --out turning_fit
python - <<'PY'
import json
fit = json.load(open("turning_fit/catalogue.json", encoding="utf-8"))
mode = min(fit["modes"], key=lambda m: abs(m["gamma"] - 0.1))
assert abs(mode["omega"] / 2.0 - 1.0) <= 1e-6 and abs(mode["gamma"] / 0.1 - 1.0) <= 1e-6, fit
doc = json.load(open("model3.json", encoding="utf-8"))
doc["params"] = fit
json.dump(doc, open("model3_pasted.json", "w", encoding="utf-8"))
PY
decopoles simulate --config model3_pasted.json --out pasted
python - <<'PY'
def values(path):
    rows = open(path, encoding="utf-8").read().splitlines()[1:]
    return [complex(float(re), float(im)) for _, re, im in (row.split(",") for row in rows)]
first, again = values("turning/signal.csv"), values("pasted/signal.csv")
size = max(map(abs, first))
assert len(first) == len(again) and max(abs(x - y) for x, y in zip(first, again)) <= 1e-12 * size
PY
decopoles omnes --config omnes.json --out omnes_out
# the same run with m = omega = hbar = 1e-200: m omega underflows to 0, yet
# Delta = L0 sqrt(m omega / 2) / hbar is L0 sqrt(1/2), so every sweep length runs
python - <<'PY'
import json
doc = json.load(open("omnes.json", encoding="utf-8"))
doc["params"].update(m=1e-200, omega=1e-200, hbar=1e-200)
json.dump(doc, open("omnes_tiny_scales.json", "w", encoding="utf-8"))
PY
decopoles omnes --config omnes_tiny_scales.json --out omnes_tiny_scales_out
decopoles simulate --config bifriedrich.json --out bi
grep -qx "1,quantum,quantum" bi/verdicts.csv
grep -qx "1.5,classical,quantum" bi/verdicts.csv
# gamma1 / gamma0 = 5: model2 runs, and its weak separation is one warning: line of the CLI's
python - <<'PY'
import json
doc = {"scenario": "model2", "grid": {"t_max": 10.0, "n_points": 41}, "params": {"gamma0": 1, "gamma1": 5}}
json.dump(doc, open("model2_weak.json", "w", encoding="utf-8"))
PY
decopoles simulate --config model2_weak.json --out model2_weak 2> model2_weak.err
test -f model2_weak/timescales.csv
printf 'warning: gamma0 = 1.0 is not << gamma1 = 5.0; timescale separation is weak\n' | cmp - model2_weak.err
test -f omnes_out/macroscopicity.txt
test -f omnes_out/nd_decay.csv
# the separation-free invariant through the console script: t_D L0^2 is one number
# over the README's three sweep lengths, at the README's scales and at 1e-200
python - <<'PY'
import csv
for out in ("omnes_out", "omnes_tiny_scales_out"):
    rows = list(csv.DictReader(open(f"{out}/td_vs_L0.csv", encoding="utf-8")))
    assert len(rows) == 3, (out, rows)
    products = [float(r["t_D"]) * float(r["L0"]) ** 2 for r in rows]
    assert max(products) - min(products) <= 1e-12 * products[0], (out, products)
PY
python -c "import decopoles; print(decopoles.catalogue_from_json(open('fit/catalogue.json').read()))"
