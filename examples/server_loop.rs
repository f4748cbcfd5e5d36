//! Server loop: concurrent clients against the threaded serving front-end.
//!
//! Where `examples/serving.rs` drives the [`Engine`] directly from one
//! thread, this example stands up the full front-end: a [`Server`] owning
//! the engine behind a bounded admission queue, a work-conserving
//! micro-batch coalescer (it flushes whenever nothing else is queued, so
//! requests batch only while a flush is in flight), and cost-budget
//! overload shedding. Four client
//! threads submit bursts concurrently; each gets a [`Ticket`] that resolves
//! to its answer (or a typed `Shed`/`Overloaded` error), and the shutdown
//! stats show what the coalescer and the shedder did.
//!
//! ```text
//! cargo run --release --example server_loop
//! ```

use appeal_hw::CostBudget;
use appeal_models::prelude::*;
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::prelude::*;
use std::thread;
use std::time::Duration;

const INPUT: [usize; 3] = [3, 12, 12];

fn main() -> Result<(), CoreError> {
    // A tiny untrained stack keeps the example fast; the front-end behaves
    // identically with trained weights (see examples/serving.rs for those).
    let mut rng = SeededRng::new(7);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, INPUT, 4).build(&mut rng);
    let big = ModelSpec::big(INPUT, 4).build(&mut rng);
    let engine = Engine::builder()
        .appealnet(TwoHeadNet::from_parts(little, &mut rng))
        .big(big)
        .policy(ThresholdPolicy::new(1.0)?) // δ = 1.0: everything appeals
        .max_batch(8)
        .build()?;

    // Budget ~6 cloud offloads per 16-request window: sustained appeal
    // traffic overruns it and the tail of each window is shed.
    let offload = engine.offload_cost();
    let server = Server::start(
        engine,
        ServerConfig {
            queue_capacity: 64,
            deadline: Duration::from_millis(2),
            shed: Some(ShedConfig {
                budget: CostBudget::energy_mj(offload.energy_mj * 6.0),
                window: 16,
            }),
            ..ServerConfig::default()
        },
    )?;

    println!("4 clients x 16 requests against one batcher thread:");
    let workers: Vec<_> = (0..4u32)
        .map(|client| {
            let handle = server.handle();
            thread::spawn(move || {
                let mut rng = SeededRng::new(100 + client as u64);
                let mut answered = 0u32;
                let mut shed = 0u32;
                for i in 0..16u64 {
                    let frame = Tensor::randn(&INPUT, &mut rng);
                    let ticket = match handle.submit(client, InferenceRequest::new(i, frame)) {
                        Ok(t) => t,
                        Err(CoreError::Overloaded { .. }) => continue,
                        Err(e) => panic!("submit failed: {e}"),
                    };
                    match ticket.wait() {
                        Ok(served) => {
                            answered += 1;
                            if i == 0 {
                                println!(
                                    "  client {client}: first answer label {} via {:?} after {:?}",
                                    served.response.label, served.response.route, served.waited
                                );
                            }
                        }
                        Err(CoreError::Shed) => shed += 1,
                        Err(e) => panic!("serving failed: {e}"),
                    }
                }
                (client, answered, shed)
            })
        })
        .collect();
    for worker in workers {
        let (client, answered, shed) = worker.join().expect("client thread");
        println!("  client {client}: {answered} answered, {shed} shed");
    }

    let (engine, stats) = server.shutdown()?;
    println!(
        "\nserver: {} offered | {} answered | {} shed ({:.0}%) | {} rejected",
        stats.offered,
        stats.answered,
        stats.shed,
        100.0 * stats.shed_rate(),
        stats.rejected,
    );
    println!(
        "flushes: {} full, {} past the deadline, {} with nothing else queued | fairness index {:.3}",
        stats.size_flushes,
        stats.deadline_flushes,
        stats.drain_flushes,
        stats.fairness_index(),
    );
    println!(
        "engine afterwards: {} requests in {} batches, queue empty: {}",
        stats.engine.requests,
        stats.engine.batches,
        engine.pending() == 0
    );
    Ok(())
}
