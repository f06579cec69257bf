//! Bad `serve` configurations are usage errors (exit 2 with a message),
//! never panics (exit 101).

use std::process::Command;

/// Runs `balls-into-bins serve` on a small valid base configuration
/// with `extra` flags appended (a later flag overrides an earlier one),
/// returning the exit code and stderr.
fn serve(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_balls-into-bins"))
        .args(["serve", "--n", "64", "--arrivals", "640", "--ticks", "4"])
        .args(extra)
        .output()
        .expect("the CLI binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_serve_configurations_exit_2_with_a_message() {
    let cases: [(&[&str], &str); 6] = [
        (&["--probe-budget", "0"], "probe_budget must be at least 1"),
        (&["--retry-budget", "0"], "retry_budget must be at least 1"),
        (
            &["--fallback-frac", "2"],
            "fallback_alive_frac = 2 is outside [0, 1]",
        ),
        (&["--ticks", "0"], "ticks must be at least 1"),
        (&["--n", "0"], "n must be at least 1"),
        // 2³² used to wrap to a zero budget through `as u32`.
        (
            &["--probe-budget", "4294967296"],
            "--probe-budget needs an unsigned integer",
        ),
    ];
    for (flags, message) in cases {
        let (code, stderr) = serve(flags);
        assert_eq!(code, Some(2), "{flags:?}: stderr {stderr}");
        assert!(stderr.contains(message), "{flags:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{flags:?}: stderr {stderr}");
    }
}

#[test]
fn valid_serve_configuration_exits_0() {
    for threads in ["1", "2"] {
        let (code, stderr) = serve(&["--threads", threads, "--depart", "0.2"]);
        assert_eq!(code, Some(0), "{threads} threads: stderr {stderr}");
        assert!(stderr.contains("arrivals=640"), "stderr {stderr}");
    }
}
