#!/bin/sh
# Telemetry end-to-end smoke: serve a gateway in the background, sweep
# 64 devices through it, scrape the live snapshot over the wire with
# `fleet metrics`, and check the scraped counters saw every report.
# Then one gateway-driven sweep (`fleet attest --gateway`) must show in
# the engine's sweep-time and verify-tail histograms. A last client
# sweep lets the server reach --expect-reports and exit cleanly; every
# failure path kills the background server so it never holds the port
# for the next run.
set -u

CLI=./target/release/eilid-cli
ADDR=127.0.0.1:4811
SNAPSHOT=/tmp/obs_smoke.prom

"$CLI" fleet serve --addr "$ADDR" --devices 64 --threads 4 --expect-reports 192 &
SERVE=$!
trap 'kill $SERVE 2>/dev/null' EXIT

ok=1
for attempt in 1 2 3 4 5 6 7 8 9 10; do
    sleep 1
    if "$CLI" fleet connect --addr "$ADDR" --devices 64 --clients 4; then
        ok=0
        break
    fi
done
if [ "$ok" -ne 0 ]; then
    echo "obs-smoke: connect never succeeded" >&2
    exit 1
fi

"$CLI" fleet metrics --gateway "$ADDR" > "$SNAPSHOT" || {
    echo "obs-smoke: metrics scrape failed" >&2
    exit 1
}
if ! grep -q "^eilid_service_reports_verified_total 64$" "$SNAPSHOT" ||
    ! grep -q "^eilid_gateway_pass_us_count" "$SNAPSHOT"; then
    echo "obs-smoke: scraped snapshot missing expected metrics" >&2
    cat "$SNAPSHOT" >&2
    exit 1
fi
echo "obs-smoke: scraped $(wc -l < "$SNAPSHOT") metric lines"

"$CLI" fleet attest --gateway "$ADDR" --devices 64 || {
    echo "obs-smoke: gateway-driven sweep failed" >&2
    exit 1
}
"$CLI" fleet metrics --gateway "$ADDR" > "$SNAPSHOT" || {
    echo "obs-smoke: metrics scrape failed" >&2
    exit 1
}
if ! grep -q "^eilid_ops_sweep_us_count 1$" "$SNAPSHOT" ||
    ! grep -q "^eilid_ops_sweep_verify_tail_us_count 1$" "$SNAPSHOT"; then
    echo "obs-smoke: engine sweep histograms not populated" >&2
    cat "$SNAPSHOT" >&2
    exit 1
fi
echo "obs-smoke: engine sweep time and verify tail recorded"

"$CLI" fleet connect --addr "$ADDR" --devices 64 --clients 4 || {
    echo "obs-smoke: second sweep failed" >&2
    exit 1
}
trap - EXIT
wait "$SERVE"
