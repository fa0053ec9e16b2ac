//! Regenerates the **drop-index convoy** ablation of §8.3: a naive
//! normal-priority DROP INDEX behind one long-running reader convoys the
//! entire workload under the FIFO lock scheduler, while the production
//! protocol (low-priority lock + back-off/retry) never blocks user
//! queries and still completes the drop.
//!
//! ```text
//! cargo run -p bench --release --bin lock_convoy
//! ```

use bench::Args;
use controlplane::lock_protocol::{run_drop_protocol, steady_workload, DropProtocolConfig};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::lock::{LockMode, LockPriority, LockRequest};

fn main() {
    let args = Args::parse();
    let queries = args.get_or::<u64>("queries", 200);

    println!("== Drop-index lock convoy (§8.3 ablation) ==\n");
    println!(
        "workload: {queries} queries (one every 500 ms, each holding 200 ms),\n\
         plus one long-running reader; DROP INDEX issued at t=1 s\n"
    );
    println!(
        "{:>16} {:>10} {:>14} {:>14} {:>14} {:>10}",
        "reader hold", "protocol", "blocked qries", "max wait", "total wait", "attempts"
    );

    for reader_secs in [10u64, 60, 300] {
        let mut workload = steady_workload(
            queries,
            Timestamp(2_000),
            Duration::from_millis(500),
            Duration::from_millis(200),
        );
        workload.push(LockRequest {
            id: 9_999,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(reader_secs),
        });

        for naive in [true, false] {
            let cfg = DropProtocolConfig {
                naive_fifo: naive,
                ..DropProtocolConfig::default()
            };
            let out = run_drop_protocol(&workload, Timestamp(1_000), &cfg);
            println!(
                "{:>15}s {:>10} {:>14} {:>14} {:>14} {:>10}",
                reader_secs,
                if naive { "FIFO" } else { "low-prio" },
                out.convoy.blocked_shared,
                format!("{}", out.convoy.max_shared_wait),
                format!("{}", out.convoy.total_shared_wait),
                if out.succeeded {
                    out.attempts.to_string()
                } else {
                    format!("{} (gave up)", out.attempts)
                },
            );
        }
    }
    println!(
        "\npaper shape: FIFO drop convoys every later query behind the long reader\n\
         (waits grow with the reader's hold time); the low-priority protocol blocks\n\
         zero queries and completes once the reader finishes."
    );
}
