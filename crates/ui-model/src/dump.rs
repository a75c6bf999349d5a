//! `uiautomator dump`-style XML serialization of UI hierarchies.
//!
//! Real Toller/UiAutomator stacks exchange screens as XML dumps; this
//! module writes that format so a hierarchy can leave the simulation for
//! inspection or diffing (`taopt-sim dump`). The dump is write-only:
//! nothing reads one back. The writer is deliberately self-contained —
//! the dialect is small and fixed, so a dependency on an XML crate would
//! buy nothing.
//!
//! ```xml
//! <?xml version='1.0' encoding='UTF-8' standalone='yes' ?>
//! <hierarchy rotation="0">
//!   <node class="android.widget.Button" resource-id="btn_buy" text="Buy"
//!         enabled="true" clickable="true" bounds="[40,400][1040,480]"/>
//! </hierarchy>
//! ```

use std::fmt::Write as _;

use crate::hierarchy::UiHierarchy;
use crate::widget::Widget;

/// Serializes a hierarchy to a `uiautomator`-flavoured XML dump.
pub fn to_xml(hierarchy: &UiHierarchy) -> String {
    let mut out = String::from(
        "<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>\n<hierarchy rotation=\"0\">\n",
    );
    write_node(hierarchy.root(), 1, &mut out);
    out.push_str("</hierarchy>\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\n', "&#10;")
}

fn write_node(w: &Widget, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let _ = write!(out, "{pad}<node class=\"{}\"", w.class.android_name());
    if let Some(rid) = &w.resource_id {
        let _ = write!(out, " resource-id=\"{}\"", escape(rid));
    }
    if let Some(text) = &w.text {
        let _ = write!(out, " text=\"{}\"", escape(text));
    }
    let _ = write!(out, " enabled=\"{}\" bounds=\"{}\"", w.enabled, w.bounds);
    if let Some((id, kind)) = w.affordance {
        let _ = write!(out, " action-id=\"{}\" action-kind=\"{kind}\"", id.0);
    }
    if w.children.is_empty() {
        out.push_str("/>\n");
    } else {
        out.push_str(">\n");
        for c in &w.children {
            write_node(c, depth + 1, out);
        }
        let _ = writeln!(out, "{pad}</node>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionId, ActionKind};
    use crate::geometry::Bounds;
    use crate::widget::WidgetClass;

    fn sample() -> UiHierarchy {
        UiHierarchy::new(
            Widget::container(WidgetClass::LinearLayout)
                .with_child(
                    Widget::button("buy", "Buy \"now\" <50% off & more>")
                        .with_bounds(Bounds::new(40, 400, 1040, 480))
                        .with_affordance(ActionId(7), ActionKind::Click),
                )
                .with_child(
                    Widget::container(WidgetClass::FrameLayout)
                        .with_child(Widget::text_view("label", "line one\nline two")),
                ),
        )
    }

    #[test]
    fn xml_looks_like_uiautomator() {
        let mut h = sample();
        let xml = to_xml(&h);
        assert!(xml.starts_with("<?xml version='1.0'"));
        assert!(xml.contains("<hierarchy rotation=\"0\">"));
        assert_eq!(xml.matches("<hierarchy").count(), 1);
        assert!(xml.ends_with("</hierarchy>\n"));
        assert!(xml.contains("class=\"android.widget.Button\""));
        assert!(xml.contains("bounds=\"[40,400][1040,480]\""));
        assert!(xml.contains("text=\"Buy &quot;now&quot; &lt;50% off &amp; more&gt;\""));
        assert!(xml.contains("text=\"line one&#10;line two\""));
        assert!(xml.contains("action-id=\"7\" action-kind=\"click\""));
        // One line per node, plus the header, the two containers' closing
        // tags and the footer: an escaped newline never splits a tag.
        assert_eq!(xml.lines().count(), 2 + h.node_count() + 2 + 1);
        assert!(!xml.contains("enabled=\"false\""));
        h.disable_actions(&[ActionId(7)]);
        let disabled = to_xml(&h);
        assert_eq!(disabled.matches("enabled=\"false\"").count(), 1);
        assert!(disabled.contains("resource-id=\"buy\""));
    }
}
