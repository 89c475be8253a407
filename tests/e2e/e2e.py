#!/usr/bin/env python3
"""End-to-end checks: the built bench and tool binaries, driven as a user runs them.

    e2e.py <check> src=DIR obs=ON|OFF work=DIR [name=/path/to/binary ...]

tests/CMakeLists.txt registers every check below as its own ctest test,
`e2e.<check>`, with label `e2e`, so `ctest -L e2e` runs them all and
`ctest -R e2e.<check>` runs one. Each check wipes and works in its own
`work` directory (build/e2e/<check>/), where its artifacts stay for
inspection. net_scenarios and perf_phy always write a cwd-relative
results/BENCH_*.json, so running there never touches a committed file.

Exit status: 0 = pass, 1 = a check failed, 77 = the check needs a
SILENCE_OBS=ON build (ctest reports it as skipped), 2 = usage error.
Standard library only.
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

SKIP = 77

# sha256 of the result file each command writes, recorded from a Release
# SILENCE_OBS=ON and a Release SILENCE_OBS=OFF build (they agreed) and
# checked against RelWithDebInfo: observability never feeds back into
# results, and neither does the optimisation level.
PINS = {
    'net_scenarios': (
        ['--stas', '8,16', '--trials', '2'],
        '7941c338bbc36226ff122aa2d7ff2647323721c80fceef8c334162a979fd7a6e'),
    'fig10_detection': (
        ['--trials', '4'],
        '73d8dddf92db13a99ceb9b76cc4179860d3ffb78f9a813a3b338600b1539c0ef'),
}

BIN = {}
SRC = ''
WORK = ''
OBS_ON = False


class Failed(Exception):
    pass


class Skipped(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise Failed(msg)


def needs_obs():
    if not OBS_ON:
        raise Skipped('needs a SILENCE_OBS=ON build')


def path(*parts):
    return os.path.join(WORK, *parts)


def run(tool, *args, cwd=None, env=None, code=0, stderr=False):
    """Runs a built binary (cwd defaults to the work dir); checks its exit code.

    With stderr=True the binary's stderr is captured, echoed and returned.
    """
    env = env or {}
    cmd = [BIN[tool]] + [str(a) for a in args]
    print('+', *[f'{k}={v}' for k, v in env.items()], *cmd, flush=True)
    proc = subprocess.run(cmd, cwd=cwd or WORK, env=dict(os.environ, **env),
                          stderr=subprocess.PIPE if stderr else None, text=stderr)
    if stderr:
        print(proc.stderr, end='', file=sys.stderr, flush=True)
    need(proc.returncode == code,
         f'{os.path.basename(cmd[0])} exited {proc.returncode}, expected {code}')
    return proc.stderr


def load(p):
    with open(p) as f:
        return json.load(f)


def save(p, doc):
    with open(p, 'w') as f:
        json.dump(doc, f)


def read(p):
    with open(p, 'rb') as f:
        return f.read()


def same_bytes(runs):
    """Every run's bytes equal the first's; `runs` maps a label to bytes."""
    (base_label, base), *rest = runs.items()
    for label, data in rest:
        need(data == base, f'{label} differs from {base_label}')
    print('byte-identical:', ', '.join(runs))


def health_bytes(record):
    # The health section holds only integers, so its canonical dump is
    # as strict as cmp.
    return json.dumps(load(record)['health'], sort_keys=True).encode()


def ordered_quantiles(hist, name):
    need(hist['p50'] <= hist['p95'] <= hist['p99'], f'{name}: quantiles out of order')


def net16():
    """One 16-station run with a MAC timeline trace; returns the result path."""
    run('net_scenarios', '--stas', '16', '--trials', '1', '--threads', '2',
        '--json', path('net16.json'), '--trace', path('net16.trace.json'))
    return path('net16.json')


def fig10_health():
    """One fig10 run whose record carries a health section."""
    run('fig10_detection', '--trials', '4', '--threads', '1',
        '--json', path('fig10.json'))
    return path('fig10.json'), path('fig10.run.json')


def campaign(name, sweeps):
    """Runs a silence_campaign manifest over `sweeps`; returns the dashboard."""
    manifest = {'campaign': name, 'output': path('dashboard.json'),
                'fabric_workers': 2, 'sweeps': sweeps}
    save(path('manifest.json'), manifest)
    run('silence_campaign', path('manifest.json'))
    return load(path('dashboard.json'))


# --- determinism: the same bytes at any thread count, fabric or build ---


def fig09_threads():
    for t in (2, 7):
        run('fig09_capacity', '--trials', '5', '--threads', t,
            '--json', path(f't{t}.json'))
    same_bytes({'threads 2': read(path('t2.json')),
                'threads 7': read(path('t7.json'))})


def net_threads():
    for t in (1, 3):
        run('net_scenarios', '--trials', '2', '--threads', t,
            '--json', path(f'net{t}.json'))
    same_bytes({'threads 1': read(path('net1.json')),
                'threads 3': read(path('net3.json'))})
    row4 = next(p for p in load(path('net1.json'))['points'] if p['stas'] == 4)
    need(row4['ctrl_kbps'] > 0, 'no free control goodput')
    need(row4['thpt_mbps'] > 0, 'no data throughput')


def bench_net_identity():
    runs = {'threads 1': ['--threads', '1'], 'threads 8': ['--threads', '8'],
            'threads 8, fabric 4': ['--threads', '8', '--fabric', '4']}
    for i, args in enumerate(runs.values()):
        os.makedirs(path(str(i)))
        run('net_scenarios', '--stas', '16,64', '--trials', '2', *args,
            cwd=path(str(i)))
    same_bytes({label: read(path(str(i), 'results', 'BENCH_net.json'))
                for i, label in enumerate(runs)})


def fabric_identity():
    base = ['--trials', '4', '--threads', '2', '--json']
    run('fig10_detection', *base, path('single.json'))
    run('fig10_detection', *base, path('fab4.json'), '--fabric', '4')
    # Shard 1's worker dies halfway on attempt 0; the retry must
    # reproduce the same bytes.
    run('fig10_detection', *base, path('crash.json'), '--fabric', '4',
        env={'SILENCE_FABRIC_CRASH_SHARD': '1'})
    same_bytes({name: read(path(f'{name}.json'))
                for name in ('single', 'fab4', 'crash')})


def fabric_exhaustion():
    # Shard 1 dies on its only attempt: the supervisor gives up, and the
    # bench must say which shard failed and exit 1 rather than abort.
    err = run('fig10_detection', '--trials', '4', '--threads', '2', '--fabric', '2',
              '--fabric-retries', '0', '--json', path('fab.json'),
              env={'SILENCE_FABRIC_CRASH_SHARD': '1'}, code=1, stderr=True)
    need(re.search(r'fabric: shard \S+:1/2:\S+ failed after 1 attempt', err),
         'stderr does not name the failed shard')
    need('terminate called' not in err, 'the exception escaped main')
    need(not os.path.exists(path('fab.json')), 'a failed run wrote a result file')


def onoff_pins():
    for tool, (args, digest) in PINS.items():
        run(tool, *args, '--threads', '2', '--json', path(f'{tool}.json'))
        got = hashlib.sha256(read(path(f'{tool}.json'))).hexdigest()
        need(got == digest, f'{tool} {" ".join(args)}: sha256 {got}, pinned {digest}')
    # The run record always has a timing section, and metrics and health
    # exactly when the build is instrumented.
    rec = load(path('fig10_detection.run.json'))
    need('timing' in rec, sorted(rec))
    for section in ('health', 'metrics'):
        need((section in rec) == OBS_ON,
             f'SILENCE_OBS={"ON" if OBS_ON else "OFF"} record sections: {sorted(rec)}')


# --- committed baselines and the bench_compare gate ---


def bench_net_gate():
    # Every BENCH_net stage derives from simulated time, so any machine
    # reproduces it and the tolerance is tight. The ratio gate compares
    # simulated events per simulated second (a model property, not code
    # speed): the 1024-STA rate stays >= 0.30x the 1-STA rate.
    for t in (2, 4):
        os.makedirs(path(f't{t}'))
        run('net_scenarios', '--trials', '4', '--threads', t, cwd=path(f't{t}'))
    fresh = path('t4', 'results', 'BENCH_net.json')
    same_bytes({'threads 2': read(path('t2', 'results', 'BENCH_net.json')),
                'threads 4': read(fresh)})
    committed = os.path.join(SRC, 'results', 'BENCH_net.json')
    run('bench_compare', committed, fresh, '--tolerance', '0.02', '--gate-ratio',
        'NET/engine_events/stas=1024:NET/engine_events/stas=1:0.30')
    # A benchmark missing from the candidate fails the gate.
    doc = load(fresh)
    doc['stages'] = doc['stages'][1:]
    save(path('missing.json'), doc)
    run('bench_compare', committed, path('missing.json'), code=1)


def bench_compare_gate():
    committed = os.path.join(SRC, 'results', 'BENCH_phy.json')
    run('bench_compare', committed, committed)
    doc = load(committed)
    for s in doc['stages']:
        s['real_ns'] *= 1.5
    save(path('regressed.json'), doc)
    run('bench_compare', committed, path('regressed.json'), code=1)


def perf_phy_loose_gate():
    # Loose on purpose: this machine is not the baseline's. It proves the
    # committed file still parses against a fresh run and that no row
    # went missing; the 10% gate lives in CI's perf-smoke job.
    run('perf_phy', '--benchmark_min_time=0.05')
    run('bench_compare', os.path.join(SRC, 'results', 'BENCH_phy.json'),
        path('results', 'BENCH_phy.json'), '--tolerance', '2.0')


def bench_compare_report():
    # The --report JSON carries the same verdict as the exit code.
    committed = os.path.join(SRC, 'results', 'BENCH_net.json')
    run('bench_compare', committed, committed, '--report', path('compare.json'))
    rep = load(path('compare.json'))
    need(rep['pass'] is True and rep['summary']['regressions'] == 0, rep['summary'])
    need(all(e['status'] == 'ok' for e in rep['entries']), rep['entries'])


# --- the network simulator at scale ---


def mac_overhead():
    # The access-coordination study: a throw in its DCF arm (net::NetSim)
    # or its scheduled poll/grant arms fails the check.
    run('mac_overhead')


def net_1024():
    run('net_scenarios', '--stas', '1024', '--trials', '1', '--threads', '4',
        '--json', path('big.json'))
    doc = load(path('results', 'BENCH_net.json'))
    row = next(p for p in doc['net_points'] if p['stas'] == 1024)
    need(row['thpt_mbps'] > 0, row)
    need(row['events'] > 0, row)
    need(row['obss_overlap_us'] == 0, 'single BSS cannot see OBSS')


def net_obss_topology():
    run('net_scenarios', '--topology',
        os.path.join(SRC, 'bench', 'topologies', 'obss_2ap_cochannel.json'),
        '--trials', '2', '--threads', '2', '--json', path('obss.json'))
    row = load(path('results', 'BENCH_net.json'))['net_points'][0]
    need(row['stas'] == 16, row)
    need(row['obss_overlap_us'] > 0, 'co-channel APs never overlapped')
    need(row['thpt_mbps'] > 0, row)


# --- fabric supervisor and campaigns ---


def fabric_telemetry():
    # Shard 1 crashes mid-shard and shard 2 hangs until the supervisor's
    # timeout kills it; the results stay byte-identical and the record's
    # telemetry journals both.
    base = ['--stas', '8,16', '--trials', '2', '--threads', '2']
    run('net_scenarios', *base, '--json', path('single.json'))
    run('net_scenarios', *base, '--fabric', '4', '--fabric-timeout', '10',
        '--json', path('fabric.json'),
        env={'SILENCE_FABRIC_CRASH_SHARD': '1', 'SILENCE_FABRIC_HANG_SHARD': '2'})
    same_bytes({'single': read(path('single.json')),
                'crash + straggler fabric': read(path('fabric.json'))})
    t = load(path('fabric.run.json'))['telemetry']
    s = t['summary']
    need(s['retries'] >= 2, s)
    need(s['straggler_kills'] >= 1, s)
    need(s['worker_failures'] >= 1, s)
    need(s['completes'] == t['shards'], s)
    need(s['attempt_seconds']['count'] == s['dispatches'], s)
    kinds = [e['kind'] for e in t['events']]
    for k in ('dispatch', 'worker_failure', 'retry', 'straggler_kill', 'complete'):
        need(k in kinds, f'missing event {k}')
    if not OBS_ON:
        return
    single = load(path('single.run.json'))['metrics']
    fabric = load(path('fabric.run.json'))['metrics']
    sh, fh = single['histograms'], fabric['histograms']
    keys = sorted(k for k in sh if k.startswith('net.sta.'))
    need(keys == sorted(k for k in fh if k.startswith('net.sta.')),
         'net.sta key sets differ')
    need(keys, 'no net.sta histograms')
    bad = [k for k in keys if sh[k] != fh[k]]
    need(not bad, f'fabric-merged histograms differ: {bad}')
    need(single['counters']['runner.trials'] == fabric['counters']['runner.trials'],
         'runner.trials differs')


def campaign_sweeps():
    # Two sweeps through the fabric; the dashboard sums their counters
    # and recomputes quantiles from the merged buckets.
    dash = campaign('ci_smoke', [
        {'name': name, 'command': [BIN[name], '--trials', '4', '--threads', '2'],
         'json': path(f'{name}.json')}
        for name in ('fig09_capacity', 'fig10_detection')])
    need(dash['totals']['sweeps'] == 2, dash['totals'])
    need(dash['totals']['trials_run'] > 0, dash['totals'])
    need({s['name'] for s in dash['sweeps']} == {'fig09_capacity', 'fig10_detection'},
         dash['sweeps'])
    need(all(s['run_record'].endswith('.run.json') for s in dash['sweeps']),
         dash['sweeps'])
    if OBS_ON:
        hists = dash['metrics']['histograms']
        need(hists, 'no merged histograms in dashboard')
        for name, h in hists.items():
            ordered_quantiles(h, name)
        need(dash['metrics']['counters']['runner.trials'] > 0, 'no runner.trials')


def campaign_telemetry():
    dash = campaign('fleet_smoke', [
        {'name': 'net_scenarios',
         'command': [BIN['net_scenarios'], '--stas', '8,16', '--trials', '2',
                     '--threads', '2'],
         'json': path('net.json')}])
    ft = dash['fabric_telemetry']
    need(ft['sweeps'] == 1 and ft['workers'] == 2, ft)
    need(ft['completes'] == ft['shards'] > 0, ft)
    need(ft['attempt_seconds']['count'] > 0, ft)
    record = dash['sweeps'][0]['run_record']
    need(record.endswith('.run.json'), record)
    need('telemetry' in load(record), record)


# --- observability (SILENCE_OBS=ON builds) ---


def fig09_trace():
    needs_obs()
    run('fig09_capacity', '--trials', '5', '--trace', path('out.trace.json'))
    trace = load(path('out.trace.json'))
    names = {e['name'] for e in trace['traceEvents']}
    for span in ('phy.tx.frame', 'phy.rx.viterbi', 'cos.detect'):
        need(span in names, f'missing span {span}')
    counters = trace['metrics']['counters']
    need(counters['cos.erasures_injected'] > 0, 'no erasures injected')
    need(counters['cos.bits_corrected'] > 0, 'no bits corrected')


def fig10_quantiles():
    needs_obs()
    run('fig10_detection', '--trials', '5', '--threads', '4',
        '--json', path('fig10.json'))
    hists = load(path('fig10.run.json'))['metrics']['histograms']
    need(hists, 'no histograms')
    for name, h in hists.items():
        for key in ('count', 'sum', 'min', 'max', 'mean', 'p50', 'p95', 'p99'):
            need(key in h, f'{name} missing {key}')
        ordered_quantiles(h, name)


def flight_replay():
    needs_obs()
    run('fig10_detection', '--trials', '5', '--threads', '4',
        '--json', path('fig10.json'), '--flight-dir', path('flight'),
        '--flight-limit', '8')
    dumps = sorted(os.path.join(path('flight'), f) for f in os.listdir(path('flight'))
                   if f.endswith('.flight.json'))
    need(dumps, 'no flight dumps')
    for dump in dumps:
        run('silence_diag', dump)
    # The failure paths: a replay that differs from its dump is a
    # MISMATCH (exit 1); a dump the verifier cannot read exits 2.
    for name, part, key, code in (
            ('event', lambda d: d['events'][0], 'sym', 1),
            ('result', lambda d: d['result'], 'control_bits_sent', 1),
            ('schema', lambda d: d, 'schema_version', 2)):
        doc = load(dumps[0])
        part(doc)[key] += 1
        save(path(f'tampered_{name}.json'), doc)
        run('silence_diag', path(f'tampered_{name}.json'), code=code)


def net_trace():
    needs_obs()
    net16()
    events = load(path('net16.trace.json'))['traceEvents']
    # One named pid-2 track per station plus the shared medium.
    names = {e['tid']: e['args']['name'] for e in events
             if e.get('pid') == 2 and e.get('ph') == 'M' and e['name'] == 'thread_name'}
    expected = {'medium'} | {f'STA {i}' for i in range(16)}
    need(set(names.values()) == expected, sorted(names.values()))
    # Every B matched by an E on its own track; simulated timestamps
    # monotonic per track.
    open_spans, last_ts = {}, {}
    for e in events:
        if e.get('pid') != 2 or e.get('ph') == 'M':
            continue
        tid = e['tid']
        need(e['ts'] >= last_ts.get(tid, 0.0), f'non-monotonic ts on track {tid}')
        last_ts[tid] = e['ts']
        if e['ph'] == 'B':
            open_spans[tid] = open_spans.get(tid, 0) + 1
        elif e['ph'] == 'E':
            open_spans[tid] = open_spans.get(tid, 0) - 1
        need(open_spans.get(tid, 0) >= 0, f'stray E on track {tid}')
    need(all(v == 0 for v in open_spans.values()), open_spans)
    kinds = {e['name'] for e in events if e.get('pid') == 2}
    for k in ('mac.backoff', 'mac.tx', 'mac.win', 'medium.idle', 'medium.busy',
              'cos.control'):
        need(k in kinds, f'missing event kind {k}')


def net_latency():
    needs_obs()
    net16()
    h = load(path('net16.run.json'))['metrics']['histograms']
    for agg in ('net.sta.hol_wait_slots', 'net.sta.inter_tx_gap_slots'):
        need(agg in h, f'missing {agg}')
        ordered_quantiles(h[agg], agg)
    per_sta = [k for k in h if k.startswith('net.sta.') and k.endswith('.hol_wait_slots')
               and k != 'net.sta.hol_wait_slots']
    need(len(per_sta) == 16, per_sta)


def report_net():
    needs_obs()
    result = net16()
    run('silence_report', result, '--trace', path('net16.trace.json'))
    rep = load(path('net16.report.json'))
    need(len(rep['stations']) == 16, len(rep.get('stations', [])))
    tracks = rep['trace']['tracks']
    need(sum(1 for t in tracks if t['process'] == 'net-sim') == 17, tracks)
    need(all(t['balanced'] for t in tracks), tracks)
    with open(path('net16.report.md')) as f:
        need('Per-station MAC latency' in f.read(), 'no per-station latency section')


def health_schema():
    needs_obs()
    _, record = fig10_health()
    rec = load(record)
    need(rec['schema'] == 'cos.run.v1', rec.get('schema'))
    h = rec['health']
    need(h['schema'] == 'cos.health.v1', h.get('schema'))
    need(len(h['counters']) == 15, sorted(h['counters']))
    for kind in ('snr_x256', 'evm_x4096', 'chan_mag_x1024'):
        cells = h['waterfalls'][kind]['subcarriers']
        need(len(cells) == 48, kind)
        for c in cells:
            need(set(c) == {'count', 'sum', 'min', 'max', 'buckets'}, kind)
            need(len(c['buckets']) <= 40, kind)
            need(sum(c['buckets']) == c['count'], kind)
    need(h['detector']['threshold_score'] == 256,
         f"threshold_score {h['detector']['threshold_score']}, expected 256")
    for truth in ('active', 'silent'):
        need(len(h['detector'][truth]) == 48, truth)
    need(h['counters']['detector.truth_silent'] > 0, 'no labelled scores')


def health_verify():
    # silence_health's exit code is the gate: it recomputes the operating
    # point from the score histograms and compares the audit counters.
    needs_obs()
    _, record = fig10_health()
    run('silence_health', record, '--verify')
    run('silence_health', record, '--md', path('fig10_health.md'),
        '--csv', path('fig10_health.csv'))
    with open(path('fig10_health.md')) as f:
        need('Empirical ROC' in f.read(), 'no Empirical ROC section')


def health_roc():
    # The health registry saw the same score walk the sweep counted, so
    # its counters AND its histogram bucket sums at the 256 boundary
    # equal the parts' summed grid.confusion_totals.
    needs_obs()
    result, record = fig10_health()
    totals = [0, 0, 0, 0]
    for part in load(result)['parts']:
        totals = [a + b for a, b in zip(totals, part['grid']['confusion_totals'])]
    active, silent, false_pos, false_neg = totals
    h = load(record)['health']
    c = h['counters']
    need(c['detector.truth_active'] == active, (c, totals))
    need(c['detector.truth_silent'] == silent, (c, totals))
    need(c['detector.false_alarms'] == false_pos, (c, totals))
    need(c['detector.misses'] == false_neg, (c, totals))

    # Buckets 0..8 hold exactly the scores 0..255, the declared-silent
    # half of each decision.
    def below(cells):
        return sum(sum(cell['buckets'][:9]) for cell in cells)

    def total(cells):
        return sum(cell['count'] for cell in cells)

    s, a = h['detector']['silent'], h['detector']['active']
    need(total(s) == silent and total(a) == active, 'histogram totals drift')
    need(total(s) - below(s) == false_neg, 'histogram misses drift')
    need(below(a) == false_pos, 'histogram false alarms drift')
    need(silent > 0 and active > 0, totals)


def report_health():
    needs_obs()
    result, _ = fig10_health()
    run('silence_report', result)
    with open(path('fig10.report.md')) as f:
        md = f.read()
    need('PHY health' in md, 'no PHY health section')
    need('ROC histogram vs confusion counters: consistent' in md,
         'ROC not reported consistent')
    # A record that does not parse fails loudly (exit 2) instead of
    # degrading.
    os.makedirs(path('corrupt'))
    shutil.copy(result, path('corrupt', 'fig10.json'))
    with open(path('corrupt', 'fig10.run.json'), 'w') as f:
        f.write('{"schema": "cos.run.v1", "timing": \n')
    run('silence_report', path('corrupt', 'fig10.json'), code=2)


def health_identity():
    # Pooled per-thread blocks of integer cells merge exactly: the same
    # health section at any thread count and across fabric sharding.
    needs_obs()
    _, t1 = fig10_health()
    run('fig10_detection', '--trials', '4', '--threads', '8', '--json', path('t8.json'))
    run('fig10_detection', '--trials', '4', '--threads', '2', '--json', path('fab.json'),
        '--fabric', '4')
    same_bytes({'threads 1': health_bytes(t1),
                'threads 8': health_bytes(path('t8.run.json')),
                'fabric 4': health_bytes(path('fab.run.json'))})


CHECKS = {f.__name__: f for f in (
    fig09_threads, net_threads, bench_net_identity, fabric_identity, fabric_exhaustion,
    onoff_pins,
    bench_net_gate, bench_compare_gate, perf_phy_loose_gate, bench_compare_report,
    mac_overhead, net_1024, net_obss_topology,
    fabric_telemetry, campaign_sweeps, campaign_telemetry,
    fig09_trace, fig10_quantiles, flight_replay, net_trace, net_latency,
    report_net, health_schema, health_verify, health_roc, report_health,
    health_identity)}


def main(argv):
    global SRC, WORK, OBS_ON
    try:
        check = CHECKS[argv[1]]
        opts = dict(arg.split('=', 1) for arg in argv[2:])
        SRC, WORK, OBS_ON = opts.pop('src'), opts.pop('work'), opts.pop('obs') == 'ON'
    except (IndexError, KeyError, ValueError):
        print(f'usage: {argv[0]} <check> src=DIR obs=ON|OFF work=DIR '
              '[name=/path/to/binary ...]\nchecks: ' + ' '.join(CHECKS), file=sys.stderr)
        return 2
    BIN.update(opts)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        check()
    except Skipped as e:
        print(f'SKIPPED: {e}')
        return SKIP
    except Failed as e:
        print(f'FAILED: {e}', file=sys.stderr)
        return 1
    print('PASSED')
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
