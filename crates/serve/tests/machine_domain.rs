//! Machines that cannot run the loop are user errors, not panics.
//!
//! A `machine_spec` that sets a resource class the source loop needs to
//! zero units — issue slots, an opcode's functional unit, or the branch
//! and integer units the loop control uses — is answered by `svd` with a
//! typed `input`-pass compile error naming the class. No strategy is
//! attempted (none could schedule the loop), so nothing panics and
//! stderr stays free of backtraces.

use std::io::Write;
use std::process::{Command, Stdio};
use sv_serve::CompileRequest;

#[test]
fn zero_unit_machines_get_typed_errors_from_svd() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/loops");
    let dot = std::fs::read_to_string(dir.join("dot.svl")).expect("examples/loops/dot.svl");
    // Each key, and the class the error must name: dot's loads need
    // `mem`, its multiply-add `fp`; the loop control (counted on the
    // paper machine) needs `branch` and `int`; everything needs `issue`.
    let cases = [
        ("issue_width", "issue"),
        ("int_units", "int"),
        ("fp_units", "fp"),
        ("mem_units", "mem"),
        ("branch_units", "branch"),
    ];
    let mut input = String::new();
    for (id, (key, _)) in cases.iter().enumerate() {
        let req = CompileRequest {
            loop_text: dot.clone(),
            machine_spec: Some(format!("name = no-{key}\n{key} = 0\n")),
            ..CompileRequest::default()
        };
        input.push_str(&req.to_wire(id as u64));
        input.push('\n');
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_svd"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn svd");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("svd exits");
    assert!(
        out.status.success(),
        "svd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "svd panicked:\n{stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        cases.len(),
        "one response per request:\n{stdout}"
    );
    for (id, (key, class)) in cases.iter().enumerate() {
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
            .unwrap_or_else(|| panic!("{key}: no response in\n{stdout}"));
        assert!(line.contains("\"ok\":false"), "{key}: {line}");
        assert!(
            line.contains("\"kind\":\"compile\",\"pass\":\"input\""),
            "{key}: {line}"
        );
        assert!(line.contains("unsupported machine"), "{key}: {line}");
        assert!(
            line.contains(&format!("needs a `{class}` unit")),
            "{key}: {line}"
        );
        assert!(!line.contains("internal error"), "{key}: {line}");
    }
}
