//! Gantt-chart rendering of schedules (Fig. 2's right-hand side).
//!
//! Renders a set of `(task, nodes, start, end)` bars — from a decoded
//! candidate schedule or from a finished run's completed tasks — as
//! either a fixed-width ASCII chart (for terminals and tests) or a
//! standalone SVG document (for reports). No dependencies; SVG is
//! assembled textually.

use crate::decode::DecodedSchedule;
use crate::task::CompletedTask;
use agentgrid_cluster::NodeMask;
use agentgrid_sim::SimTime;

/// One bar of a Gantt chart.
#[derive(Clone, Debug, PartialEq)]
pub struct GanttBar {
    /// Label shown on the bar (task id or name).
    pub label: String,
    /// Nodes the bar occupies.
    pub mask: NodeMask,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

/// A chart: bars over a node axis and a time axis.
#[derive(Clone, Debug, Default)]
pub struct Gantt {
    bars: Vec<GanttBar>,
    nproc: usize,
}

impl Gantt {
    /// An empty chart over `nproc` nodes.
    pub fn new(nproc: usize) -> Gantt {
        Gantt {
            bars: Vec::new(),
            nproc,
        }
    }

    /// Chart a decoded candidate schedule (labels are task indices).
    pub fn from_schedule(schedule: &DecodedSchedule, nproc: usize) -> Gantt {
        let bars = schedule
            .placements
            .iter()
            .map(|p| GanttBar {
                label: format!("T{}", p.task),
                mask: p.mask,
                start: p.start,
                end: p.completion,
            })
            .collect();
        Gantt { bars, nproc }
    }

    /// Chart a finished run (labels are application names).
    pub fn from_completed(completed: &[CompletedTask], nproc: usize) -> Gantt {
        let bars = completed
            .iter()
            .map(|c| GanttBar {
                label: format!("{}#{}", c.task.app.name, c.task.id.0),
                mask: c.mask,
                start: c.start,
                end: c.completion,
            })
            .collect();
        Gantt { bars, nproc }
    }

    /// Add one bar.
    pub fn push(&mut self, bar: GanttBar) {
        self.bars.push(bar);
    }

    /// The bars charted so far.
    pub fn bars(&self) -> &[GanttBar] {
        &self.bars
    }

    /// The latest end instant (zero when empty).
    pub fn horizon(&self) -> SimTime {
        self.bars
            .iter()
            .map(|b| b.end)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Render as ASCII: one row per node, `width` columns of time.
    /// Occupied cells show the first character of the bar's label; ties
    /// (impossible in valid schedules) show `#`.
    pub fn to_ascii(&self, width: usize) -> String {
        let width = width.max(10);
        let horizon = self.horizon().as_secs_f64();
        if horizon <= 0.0 {
            return String::from("(empty schedule)\n");
        }
        let mut rows = vec![vec![' '; width]; self.nproc];
        for bar in &self.bars {
            let c0 = ((bar.start.as_secs_f64() / horizon) * width as f64).floor() as usize;
            let c1 = ((bar.end.as_secs_f64() / horizon) * width as f64).ceil() as usize;
            let glyph = bar.label.chars().next().unwrap_or('?');
            for node in bar.mask.iter().filter(|n| *n < self.nproc) {
                for cell in &mut rows[node][c0..c1.min(width)] {
                    *cell = if *cell == ' ' { glyph } else { '#' };
                }
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!("node {i:>2} |"));
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "        0{:>width$}\n",
            format!("{horizon:.0}s"),
            width = width
        ));
        out
    }

    /// Render as a standalone SVG document.
    pub fn to_svg(&self, width_px: u32, row_px: u32) -> String {
        let horizon = self.horizon().as_secs_f64().max(1e-9);
        let header_px = 18;
        let height_px = header_px + self.nproc as u32 * row_px + 22;
        let mut svg = String::new();
        svg.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height_px}\" \
             font-family=\"monospace\" font-size=\"10\">\n"
        ));
        svg.push_str(&format!(
            "  <rect width=\"{width_px}\" height=\"{height_px}\" fill=\"white\"/>\n"
        ));
        // Node lanes.
        for i in 0..self.nproc {
            let y = header_px + i as u32 * row_px;
            svg.push_str(&format!(
                "  <line x1=\"0\" y1=\"{y}\" x2=\"{width_px}\" y2=\"{y}\" stroke=\"#ddd\"/>\n"
            ));
            svg.push_str(&format!(
                "  <text x=\"2\" y=\"{}\" fill=\"#666\">n{i}</text>\n",
                y + row_px / 2 + 3
            ));
        }
        // Bars, colour-cycled deterministically by insertion order.
        const PALETTE: [&str; 6] = [
            "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2",
        ];
        let label_zone = 26u32;
        let scale = (width_px - label_zone) as f64 / horizon;
        for (k, bar) in self.bars.iter().enumerate() {
            let x = label_zone as f64 + bar.start.as_secs_f64() * scale;
            let w = ((bar.end.as_secs_f64() - bar.start.as_secs_f64()) * scale).max(1.0);
            let colour = PALETTE[k % PALETTE.len()];
            for node in bar.mask.iter().filter(|n| *n < self.nproc) {
                let y = header_px + node as u32 * row_px + 1;
                svg.push_str(&format!(
                    "  <rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{}\" \
                     fill=\"{colour}\" fill-opacity=\"0.85\"><title>{}</title></rect>\n",
                    row_px - 2,
                    xml_escape(&bar.label),
                ));
            }
            // Label once, on the lowest node lane of the bar.
            if let Some(first) = bar.mask.iter().find(|n| *n < self.nproc) {
                let y = header_px + first as u32 * row_px + row_px / 2 + 3;
                svg.push_str(&format!(
                    "  <text x=\"{:.1}\" y=\"{y}\" fill=\"white\">{}</text>\n",
                    x + 2.0,
                    xml_escape(&bar.label)
                ));
            }
        }
        // Time axis.
        let y = header_px + self.nproc as u32 * row_px + 14;
        svg.push_str(&format!(
            "  <text x=\"{label_zone}\" y=\"{y}\">0s</text>\n  <text x=\"{}\" y=\"{y}\" \
             text-anchor=\"end\">{horizon:.0}s</text>\n",
            width_px - 2
        ));
        svg.push_str("</svg>\n");
        svg
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(label: &str, nodes: &[usize], start: u64, end: u64) -> GanttBar {
        GanttBar {
            label: label.to_string(),
            mask: NodeMask::from_indices(nodes.iter().copied()),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    fn chart() -> Gantt {
        let mut g = Gantt::new(3);
        g.push(bar("alpha", &[0, 1], 0, 10));
        g.push(bar("beta", &[2], 5, 20));
        g
    }

    #[test]
    fn horizon_is_latest_end() {
        assert_eq!(chart().horizon(), SimTime::from_secs(20));
        assert_eq!(Gantt::new(2).horizon(), SimTime::ZERO);
    }

    #[test]
    fn ascii_marks_occupied_cells() {
        let text = chart().to_ascii(40);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // 3 nodes + axis
        assert!(lines[0].contains('a'), "node 0 runs alpha: {}", lines[0]);
        assert!(lines[1].contains('a'));
        assert!(lines[2].contains('b'));
        // Node 0 is idle in the second half.
        let row0 = lines[0].trim_end_matches('|');
        assert!(row0.ends_with(' '), "node 0 idles late: {row0:?}");
    }

    #[test]
    fn ascii_empty_schedule() {
        assert_eq!(Gantt::new(4).to_ascii(40), "(empty schedule)\n");
    }

    #[test]
    fn svg_contains_bars_and_labels() {
        let svg = chart().to_svg(400, 16);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("alpha"));
        assert!(svg.contains("beta"));
        // Two lanes for alpha + one for beta = 3 rects plus background.
        assert_eq!(svg.matches("<rect").count(), 4);
    }

    #[test]
    fn svg_escapes_labels() {
        let mut g = Gantt::new(1);
        g.push(bar("a<b&c", &[0], 0, 5));
        let svg = g.to_svg(200, 12);
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("a<b&c"));
    }

    #[test]
    fn from_completed_uses_app_names() {
        use agentgrid_cluster::ExecEnv;
        use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, TabulatedModel};
        use std::sync::Arc;
        let app = Arc::new(
            ApplicationModel::new(
                AppId(0),
                "sweep3d",
                ModelCurve::Tabulated(TabulatedModel::new(vec![5.0]).unwrap()),
                (1.0, 10.0),
            )
            .unwrap(),
        );
        let completed = vec![CompletedTask {
            task: crate::task::Task::new(
                crate::task::TaskId(7),
                app,
                SimTime::ZERO,
                SimTime::from_secs(10),
                ExecEnv::Test,
            ),
            mask: NodeMask::single(0),
            start: SimTime::ZERO,
            completion: SimTime::from_secs(5),
            resource: "S1".into(),
        }];
        let g = Gantt::from_completed(&completed, 1);
        assert_eq!(g.bars().len(), 1);
        assert_eq!(g.bars()[0].label, "sweep3d#7");
    }
}
