#include "prof/html_report.hpp"

#include <ostream>

#include "obs/json.hpp"

namespace greencap::prof {

namespace {

constexpr const char* kHead = R"html(<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>GreenCap run profile</title>
<style>
  :root { --fg:#1a1c1e; --muted:#6b7280; --line:#e5e7eb; --accent:#0f766e;
          --task:#0f766e; --static:#9ca3af; --residual:#d97706; --bad:#b91c1c; }
  body { font:14px/1.45 system-ui,sans-serif; color:var(--fg); margin:2rem auto;
         max-width:72rem; padding:0 1rem; }
  h1 { font-size:1.4rem; } h2 { font-size:1.05rem; margin-top:2rem;
       border-bottom:1px solid var(--line); padding-bottom:.3rem; }
  .sub { color:var(--muted); }
  .cards { display:flex; flex-wrap:wrap; gap:.8rem; margin:1rem 0; }
  .card { border:1px solid var(--line); border-radius:.5rem; padding:.6rem .9rem;
          min-width:9rem; }
  .card .v { font-size:1.25rem; font-weight:600; } .card .k { color:var(--muted);
          font-size:.8rem; }
  table { border-collapse:collapse; width:100%; margin:.6rem 0; }
  th,td { text-align:right; padding:.25rem .55rem; border-bottom:1px solid var(--line);
          font-variant-numeric:tabular-nums; }
  th:first-child,td:first-child { text-align:left; }
  th { color:var(--muted); font-weight:600; font-size:.8rem; }
  .bar { display:inline-block; height:.65rem; border-radius:2px; vertical-align:middle; }
  .note { color:var(--muted); font-size:.85rem; margin:.2rem 0 .8rem; }
  svg text { font:10px system-ui,sans-serif; }
  .warn { color:var(--bad); font-weight:600; }
</style></head><body><div id="app"></div>
)html";

constexpr const char* kScript = R"html(<script>
"use strict";
const P = JSON.parse(document.getElementById("profile").textContent);
const app = document.getElementById("app");
const fmt = (v, d = 2) => Number.isFinite(v) ? v.toLocaleString("en-US",
  { maximumFractionDigits: d, minimumFractionDigits: 0 }) : "–";
const el = (tag, html) => { const e = document.createElement(tag); e.innerHTML = html; return e; };
const section = (title, note) => {
  app.appendChild(el("h2", title));
  if (note) app.appendChild(el("p", note)).className = "note";
};
const table = (cols, rows) => {
  const t = document.createElement("table");
  t.appendChild(el("tr", cols.map(c => `<th>${c}</th>`).join("")));
  for (const r of rows) t.appendChild(el("tr", r.map(c => `<td>${c}</td>`).join("")));
  app.appendChild(t);
};
const bar = (w, color) =>
  `<span class="bar" style="width:${Math.max(1, w)}px;background:${color}"></span>`;

// -- header + summary cards -------------------------------------------------
const run = P.run, m = run.metrics;
app.appendChild(el("h1", `GreenCap profile — ${run.operation} on ${run.platform}`));
app.appendChild(el("p",
  `config <b>${run.gpu_config || "H*"}</b> · ${run.precision} · N=${run.n} ` +
  `· Nt=${run.nb} · scheduler ${run.scheduler}`)).className = "sub";
const cards = document.createElement("div"); cards.className = "cards";
for (const [k, v] of [
  ["makespan", fmt(m.time_s, 3) + " s"], ["performance", fmt(m.gflops, 0) + " Gflop/s"],
  ["energy", fmt(m.energy_j, 0) + " J"], ["efficiency", fmt(m.gflops_per_w, 2) + " Gflop/s/W"],
  ["EDP", fmt(m.edp_js, 0) + " J·s"], ["peak node power", fmt(P.peak_node_power_w, 0) + " W"],
]) cards.appendChild(el("div", `<div class="v">${v}</div><div class="k">${k}</div>`))
    .className = "card";
app.appendChild(cards);

// -- energy attribution -----------------------------------------------------
const A = P.attribution;
section("Energy attribution",
  "Each device's metered joules split into per-task attribution, the static idle/uncore " +
  "floor, and the residual the model does not explain (conserved exactly: the three sum " +
  "back to the meter).");
const maxJ = Math.max(...P.devices.map(d => d.metered_j), 1e-12);
table(["device", "level", "cap W", "metered J", "tasks J", "static J", "residual J", "split"],
  P.devices.map(d => [
    `${d.kind}${d.index} <span class="sub">${d.name}</span>`, d.level, fmt(d.cap_w, 0),
    fmt(d.metered_j, 1), fmt(d.tasks_j, 1), fmt(d.static_j, 1),
    Math.abs(d.residual_j) > 0.05 * Math.max(d.metered_j, 1e-12)
      ? `<span class="warn">${fmt(d.residual_j, 1)}</span>` : fmt(d.residual_j, 1),
    bar(260 * d.tasks_j / maxJ, "var(--task)") + bar(260 * d.static_j / maxJ, "var(--static)") +
    bar(260 * Math.abs(d.residual_j) / maxJ, "var(--residual)"),
  ]));
app.appendChild(el("p",
  `totals: metered ${fmt(A.total_metered_j, 1)} J = tasks ${fmt(A.total_tasks_j, 1)} ` +
  `+ static ${fmt(A.total_static_j, 1)} + residual ${fmt(A.total_residual_j, 1)}`))
  .className = "note";

// -- workers ----------------------------------------------------------------
section("Workers", "Busy / transfer-wait / starvation over the measured window.");
const win = Math.max(run.window.end_s - run.window.begin_s, 1e-12);
table(["worker", "tasks", "busy s", "xfer-wait s", "starved s", "energy J", "utilization"],
  P.workers.map(w => [
    w.name, w.tasks, fmt(w.busy_s, 3), fmt(w.transfer_wait_s, 3), fmt(w.starvation_s, 3),
    fmt(w.energy_j, 1),
    bar(220 * w.busy_s / win, "var(--task)") + bar(220 * w.transfer_wait_s / win, "var(--residual)"),
  ]));

// -- timeline ---------------------------------------------------------------
section("Timeline", "Longest task executions per worker (capped at 600 spans).");
{
  const rowH = 16, left = 150, width = 840;
  const tasks = [...P.tasks].sort((a, b) => (b.end_s - b.start_s) - (a.end_s - a.start_s))
    .slice(0, 600);
  const t0 = run.window.begin_s, scale = (width - left - 10) / win;
  const colors = {}, palette = ["#0f766e", "#b45309", "#1d4ed8", "#9d174d", "#4d7c0f",
    "#7c3aed", "#0e7490", "#a16207"];
  let ci = 0;
  const color = c => colors[c] ??= palette[ci++ % palette.length];
  let svg = `<svg width="${width}" height="${(P.workers.length + 1) * rowH + 24}" ` +
    `xmlns="http://www.w3.org/2000/svg">`;
  P.workers.forEach((w, i) => {
    svg += `<text x="2" y="${i * rowH + 12}">${w.name}</text>` +
      `<line x1="${left}" y1="${(i + 1) * rowH}" x2="${width}" y2="${(i + 1) * rowH}" ` +
      `stroke="#eee"/>`;
  });
  for (const t of tasks) {
    const x = left + (t.start_s - t0) * scale, wpx = Math.max(1, (t.end_s - t.start_s) * scale);
    svg += `<rect x="${x}" y="${t.worker * rowH + 2}" width="${wpx}" height="${rowH - 4}" ` +
      `fill="${color(t.codelet)}"><title>${t.label} · ${fmt((t.end_s - t.start_s) * 1e3, 2)} ms ` +
      `· ${fmt(t.energy_j, 1)} J · slack ${fmt(t.slack_s, 3)} s</title></rect>`;
  }
  const legend = Object.entries(colors).map(([c, col], i) =>
    `<rect x="${left + i * 110}" y="${P.workers.length * rowH + 8}" width="9" height="9" fill="${col}"/>` +
    `<text x="${left + i * 110 + 13}" y="${P.workers.length * rowH + 16}">${c}</text>`).join("");
  app.appendChild(el("div", svg + legend + "</svg>"));
}

// -- critical path ----------------------------------------------------------
const cp = P.critical_path.time;
section("Time-critical path",
  `length ${fmt(cp.length_s, 3)} s = exec ${fmt(cp.exec_s, 3)} + transfer-wait ` +
  `${fmt(cp.transfer_wait_s, 3)} + other-wait ${fmt(cp.other_wait_s, 3)} ` +
  `(${cp.steps.length} tasks). The energy-critical DAG path burns ` +
  `${fmt(P.critical_path.energy.joules, 1)} J over ${P.critical_path.energy.tasks.length} tasks.`);
table(["task", "codelet", "link", "gap s", "xfer-wait s", "exec s", "energy J"],
  cp.steps.slice(-40).map(s => {
    const t = P.tasks[s.task];
    return [t.label, t.codelet, s.link, fmt(s.gap_s, 4), fmt(s.transfer_wait_s, 4),
            fmt(t.end_s - t.start_s, 4), fmt(t.energy_j, 1)];
  }));
if (cp.steps.length > 40)
  app.appendChild(el("p", `…showing the last 40 of ${cp.steps.length} steps.`)).className = "note";

// -- efficiency -------------------------------------------------------------
section("Efficiency by codelet × device",
  "Realized throughput and energy efficiency per kernel family and device — where the " +
  "joules per task go, and which devices are worth their watts.");
table(["codelet", "device", "level", "tasks", "Gflop/s", "Gflop/s/W", "J/task", "EDP J·s"],
  P.efficiency.map(c => [
    c.codelet, `${c.device.kind}${c.device.index}`, c.level, c.tasks, fmt(c.gflops, 1),
    fmt(c.gflops_per_w, 3), fmt(c.j_per_task, 2), fmt(c.edp_js, 2),
  ]));

// -- what-if ----------------------------------------------------------------
section("What-if: makespan lower bounds under other cap vectors",
  "From the recorded DAG with frozen placement — a bound, not a prediction " +
  "(see docs/PROFILING.md for caveats).");
table(["config", "lower bound s", "DAG bound s", "work bound s", "vs measured"],
  P.whatif.map(w => [w.config, fmt(w.lower_bound_s, 3), fmt(w.dag_bound_s, 3),
    fmt(w.work_bound_s, 3), fmt(w.vs_measured, 3) + "×"]));

// -- model accuracy ---------------------------------------------------------
if (P.model_accuracy.length) {
  section("Perf-model accuracy", "Mean relative error of the scheduler's expectations.");
  table(["codelet", "arch", "samples", "mean rel. error"],
    P.model_accuracy.map(r => [r.codelet, r.arch, r.samples, fmt(100 * r.mean_rel_error, 2) + " %"]));
}
</script></body></html>
)html";

}  // namespace

void write_html_report(std::ostream& os, const Profile& profile) {
  // The JSON data island must not terminate the <script> element early,
  // so the writer escapes "</" in strings as the JSON-legal "<\/".
  obs::JsonWriter w{os, /*script_safe=*/true};
  w.raw(kHead).raw("<script id=\"profile\" type=\"application/json\">");
  profile.write_json(w);
  w.raw("</script>\n").raw(kScript);
}

}  // namespace greencap::prof
