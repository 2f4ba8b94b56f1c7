#!/bin/sh
# Install a built statgeom wheel into a fresh venv and run the console script
# from a temporary directory outside the checkout, where the checkout's src/
# cannot be imported.  The fixtures are built in code, so the wheel needs no
# data file for list-fixtures, describe or verify.
#
#   sh .github/wheel_outside_checkout.sh dist/statgeom-0.1.0-py3-none-any.whl
#
# The venv sees the system site-packages (numpy comes from there), and the
# wheel is installed with --no-deps.
set -eu
wheel=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$(dirname "$0")/../tests/golden" && pwd)
work=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/statgeom-wheel.XXXXXX")
trap 'rm -rf "$work"' EXIT
python -m venv --system-site-packages "$work/venv"
"$work/venv/bin/python" -m pip install --quiet --no-deps --force-reinstall "$wheel"
cd "$work"
location=$("$work/venv/bin/python" -c "import statgeom; print(statgeom.__file__)")
case "$location" in
  "$work/venv/"*) ;;
  *) echo "statgeom imported from $location, not from the wheel"; exit 1 ;;
esac
bin="$work/venv/bin"
"$bin/statgeom" list-fixtures > fixtures.txt
cat fixtures.txt
grep -qx example_5_6_k1_l1 fixtures.txt
"$bin/statgeom" describe example_5_6_k1_l1 > describe.txt
grep -qx "$(sha256sum < describe.txt | cut -d' ' -f1)  example_5_6_k1_l1" "$golden/describe.sha256"
"$bin/statgeom" verify example_5_2_n1 --report verify.json
cmp verify.json "$golden/example_5_2_n1.json"
echo "wheel OK: $location"
