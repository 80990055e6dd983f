fn main() {
    api::example_only();
    println!("{}", api::describe());
}
